"""Buchberger machinery for homogeneous submodules of graded free modules.

Everything here computes over the ambient polynomial ring S.  Quotient-ring
computations R = S/I pass the ideal's Groebner basis as extra generators in
every component (the "augmentation") and project results back; the helpers
taking a ``ring_q`` argument only use its ``ambient``, ``gb``, ``nf`` and
``mono_nf`` attributes.

Syzygies come from Schreyer's construction: the basis is accumulated without
discarding, every S-pair is reduced with tracked division quotients, and each
reduction to zero certifies one syzygy of the *original* generators.  No pair
selection criterion is applied in tracked runs; completeness of the certified
syzygies depends on processing every pair.

Lifts are batched: ``express_in_terms``, the one lift through a
presentation, reduces a whole list of targets against one tracked run.

Packed terms.  Inside the Buchberger core a term (component, monomial) is one
int, its key under a ``freemod.TermOrder``, so the integer order is the term
order.  The monomial part is the ring's linear form K (``ring.ORDERS``), so

* multiplying a vector by x^u adds the one int ``K(u) << bits`` to its terms;
* a leading term is the ``max`` of a dict's ints, with no key function;
* a term with the same code divides another iff no guard bit is lost in
  ``(F_b | guard) - F_a``, on the weighted-exponent fields F = -K mod 2^(W n);
* an lcm is a masked select on F (``PolyRing.fields_lcm``).

Tuples are packed where data enters ``_buchberger_core`` and
``GroebnerBasis.normal_form``, and unpacked where it leaves: a basis's
``elements`` and ``leading_terms``, a normal form's remainder, the syzygies
of ``syzygy_generators`` (sorted in packed Schreyer form first) and the
coefficients of ``express_in_terms``.  A tracked run keeps the
representations of its basis elements packed in the Schreyer order of its
inputs, so that a quotient's shift K(u) << bits becomes theirs by one more
shift.

The packing bound.  A field holds a weighted exponent below
``ring.DEGREE_LIMIT`` = 2^15.  Reduction and S-pairs keep every term of a
homogeneous vector at one degree, so every monomial fits as long as each
term's degree, counted from the lowest twist (for a Schreyer order, from the
lowest twist less the degree of its component's lift), stays below the
limit.  The entry points check this for every input term and every S-pair
and raise ValueError past it; a packed key never mis-orders.
"""

import heapq
from collections import defaultdict
from functools import partial
from operator import add

from .freemod import (
    row_insert,
    schreyer_key,
    term_key,
    vec_component,
    vec_degree,
    vec_from_polys,
    vec_isub_term_mul,
    vec_mul_term,
)
from .ring import DEGREE_LIMIT, memoized


class InhomogeneousError(ValueError):
    """Input is not homogeneous for the ring's grading."""


# ---------------------------------------------------------------------------
# packing


def _slots(order, twists):
    """Per-component packing data of a free module with these twists.

    A term's height is its degree less ``base``, the least ``twist - lift``
    over the components.  In a homogeneous vector of height h the monomial
    in the fields of a term (its own times its component's lift) has degree
    h less the component's rise, so bounding heights bounds every field.
    Returns ``slots[c] = (height of (c, 1), shift, code)`` and
    ``rises[code] = twist - lift - base``.
    """
    base = min((t - lf for t, lf in zip(twists, order.lifts)), default=0)
    slots, rises = {}, {}
    for c, (t, lf, shift, code) in enumerate(zip(twists, order.lifts,
                                                 order.shifts, order.codes)):
        slots[c] = (t - base, shift, code)
        rises[code] = t - lf - base
    return slots, rises


def _pack(order, slots, v):
    """``(packed v, set of term heights)``; ValueError past the bound."""
    deg_key, bits = order.ring.mono_deg_key, order.bits
    out = {}
    heights = set()
    for (c, m), coef in v.items():
        slot = slots.get(c)
        if slot is None:
            raise ValueError(f"component {c} is not in the free module of "
                             f"rank {len(slots)}")
        lift, shift, code = slot
        h, k = deg_key(m)
        h += lift
        if h >= DEGREE_LIMIT:
            raise ValueError(f"term {(c, m)} is past the packing bound: its "
                             f"degree over the lowest twist is {h}, the "
                             f"limit {DEGREE_LIMIT - 1}")
        heights.add(h)
        out[((k + shift) << bits) | code] = coef
    return out, heights


def _unpack(order, pv):
    """The tuple-keyed vector of a packed one."""
    key_mono, bits, mask = order.ring.key_mono, order.bits, order.mask
    where = order.where
    out = {}
    for t, coef in pv.items():
        c, shift = where[t & mask]
        out[(c, key_mono((t >> bits) - shift))] = coef
    return out


# ---------------------------------------------------------------------------
# division


def _isub_shifted(acc, v, d, c, p):
    """In place: acc -= c * x^u * v, for packed vectors with d the shift of x^u."""
    for t, cc in v.items():
        t += d
        val = (acc.get(t, 0) - c * cc) % p
        if val:
            acc[t] = val
        else:
            acc.pop(t, None)


def _prepare(order, vectors):
    """Monic-normalize packed vectors; return ``(basis, lts, fields, by_code)``.

    ``fields[i]`` is F of the leading monomial of ``basis[i]``, and
    ``by_code`` lists the basis indices per code of the leading term.
    """
    ring = order.ring
    inv = ring.field.inv
    bits, mask, fmask = order.bits, order.mask, ring.field_mask
    basis, lts, fields = [], [], []
    by_code = defaultdict(list)
    for v in vectors:
        if not v:
            continue
        lt = max(v)
        lc = v[lt]
        if lc != 1:
            v = ring.scale(v, inv(lc))
        by_code[lt & mask].append(len(basis))
        basis.append(v)
        lts.append(lt)
        fields.append(-(lt >> bits) & fmask)
    return basis, lts, fields, by_code


def _reduce(order, v, prepared, track=False):
    """Full normal form of a packed v against a prepared monic basis.

    Returns ``(remainder, quotients)`` where quotients maps a basis index to
    ``{shift of x^u: coefficient}`` with ``v = sum(q * basis) + remainder``.
    """
    basis, lts, fields, by_code = prepared
    ring = order.ring
    p, fmask, guard = ring.p, ring.field_mask, ring.guard
    bits, mask = order.bits, order.mask
    work = dict(v)
    rem = {}
    quot = {} if track else None
    while work:
        t = max(work)
        c = work[t]
        f = -(t >> bits) & fmask | guard
        for idx in by_code.get(t & mask, ()):
            if (f - fields[idx]) & guard == guard:
                break
        else:
            rem[t] = c
            del work[t]
            continue
        d = t - lts[idx]
        _isub_shifted(work, basis[idx], d, c, p)
        if track:
            qd = quot.setdefault(idx, {})
            qc = (qd.get(d, 0) + c) % p
            if qc:
                qd[d] = qc
            else:
                del qd[d]
    return rem, quot


def reduce_poly(ring, f, gb_polys):
    """Normal form of a polynomial modulo a list of homogeneous polynomials."""
    if not gb_polys:
        return dict(f)
    order = term_key(ring, 1)
    slots, _ = _slots(order, (0,))
    divisors = []
    for g in gb_polys:
        packed, heights = _pack(order, slots, {(0, m): c for m, c in g.items()})
        if len(heights) > 1:
            raise InhomogeneousError("divisors must be homogeneous")
        divisors.append(packed)
    packed, _ = _pack(order, slots, {(0, m): c for m, c in f.items()})
    rem, _ = _reduce(order, packed, _prepare(order, divisors))
    return {m: c for (_, m), c in _unpack(order, rem).items()}


# ---------------------------------------------------------------------------
# Buchberger


def _buchberger_core(order, gens, twists, track=False):
    """Accumulating Buchberger run under a packed term order.

    Returns ``(basis, reps, syzygies, rep_order)``, all packed: a (non-reduced)
    Groebner basis containing all nonzero input generators, the
    representation of each basis element in terms of the inputs and the
    syzygies of the inputs certified by reductions to zero (tracked runs
    only), and the Schreyer order of the inputs that packs those two (None
    in untracked runs).
    """
    ring = order.ring
    p = ring.p
    inv = ring.field.inv
    fields_lcm = ring.fields_lcm
    fmask = ring.field_mask
    bits, mask = order.bits, order.mask
    slots, rises = _slots(order, twists)
    packed = []
    for g in gens:
        v, heights = _pack(order, slots, g)
        if len(heights) > 1:
            raise InhomogeneousError(
                "generators must be homogeneous for the ring's grading")
        packed.append(v)
    rep_order = rsh = None
    if track:
        zero = order((0, ring.zero_mono))
        rep_order = schreyer_key(order, [max(v) if v else zero for v in packed])
        rsh = rep_order.bits - bits

    basis, lts, fields, reps = [], [], [], []
    by_code = defaultdict(list)
    prepared = (basis, lts, fields, by_code)
    heap = []
    seq = 0
    syzygies = []

    def add(v, rep):
        nonlocal seq
        lt = max(v)
        lc = v[lt]
        if lc != 1:
            s = inv(lc)
            v = ring.scale(v, s)
            if track:
                rep = ring.scale(rep, s)
        idx = len(basis)
        code = lt & mask
        f = -(lt >> bits) & fmask
        rise = rises[code]
        for i in by_code[code]:
            deg, k = fields_lcm(fields[i], f)
            height = deg + rise
            if height >= DEGREE_LIMIT:
                raise ValueError(f"an S-pair of degree {height} over the "
                                 f"lowest twist is past the packing bound "
                                 f"{DEGREE_LIMIT - 1}")
            heapq.heappush(heap, (height, seq, i, idx, (k << bits) | code))
            seq += 1
        by_code[code].append(idx)
        basis.append(v)
        lts.append(lt)
        fields.append(f)
        if track:
            reps.append(rep)

    for i, v in enumerate(packed):
        unit = {rep_order((i, ring.zero_mono)): 1} if track else None
        if not v:
            if track:
                syzygies.append(unit)
            continue
        add(v, unit)

    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        di = lcm - lts[i]
        dj = lcm - lts[j]
        s = {t + di: c for t, c in basis[i].items()}
        _isub_shifted(s, basis[j], dj, 1, p)
        rep = None
        if track:
            ri = di << rsh
            rep = {t + ri: c for t, c in reps[i].items()}
            _isub_shifted(rep, reps[j], dj << rsh, 1, p)
        if not s:
            if track and rep:
                syzygies.append(rep)
            continue
        r, quot = _reduce(order, s, prepared, track)
        if track:
            for idx, qd in quot.items():
                for d, q in qd.items():
                    _isub_shifted(rep, reps[idx], d << rsh, q, p)
        if r:
            add(r, rep)
        elif track and rep:
            syzygies.append(rep)
    return basis, reps, syzygies, rep_order


def _interreduce(order, basis):
    """Canonical reduced basis of packed vectors: minimal leading terms,
    fully tail-reduced, sorted by leading term.

    One pass suffices: every tail term of an element is smaller than its
    leading term, so reducing the tail against the whole kept set never
    meets that element's own leading term, and no leading term changes.
    """
    ring = order.ring
    inv = ring.field.inv
    bits, mask = order.bits, order.mask
    fmask, guard = ring.field_mask, ring.guard
    kept = []
    kept_lts = []
    divisors = defaultdict(list)  # code -> fields of the kept leading terms
    for g in sorted((v for v in basis if v), key=max):
        lt = max(g)
        f = -(lt >> bits) & fmask
        if any(((f | guard) - d) & guard == guard
               for d in divisors[lt & mask]):
            continue
        divisors[lt & mask].append(f)
        kept.append(g)
        kept_lts.append(lt)
    prepared = _prepare(order, kept)
    out = []
    for g, lt in zip(kept, kept_lts):
        lc = g[lt]
        tail = {t: v for t, v in g.items() if t != lt}
        rem, _ = _reduce(order, tail, prepared)
        if rem != tail:
            g = {lt: lc, **rem}
        out.append(ring.scale(g, inv(lc)))
    return out


class GroebnerBasis:
    """A reduced Groebner basis of a homogeneous submodule of a free module.

    The basis is kept once, packed under the term-over-position order; the
    tuple-keyed ``elements`` are derived from it on each read.
    """

    def __init__(self, order, basis, twists):
        self.ring = order.ring
        self.order = order
        self.twists = tuple(twists)
        self._slots, _ = _slots(order, self.twists)
        self._prepared = _prepare(order, basis)

    @property
    def elements(self):
        return tuple(_unpack(self.order, g) for g in self._prepared[0])

    def normal_form(self, v):
        packed, _ = _pack(self.order, self._slots, v)
        rem, _ = _reduce(self.order, packed, self._prepared)
        return _unpack(self.order, rem)

    def contains(self, v) -> bool:
        return not self.normal_form(v)

    def leading_terms(self):
        return tuple(_unpack(self.order, dict.fromkeys(self._prepared[1])))

    @memoized
    def initial_module(self):
        """Minimal monomial generators of the initial module, per component."""
        per_comp = defaultdict(list)
        for c, m in self.leading_terms():
            per_comp[c].append(m)
        out = {}
        for c, ms in per_comp.items():
            mins = []
            for m in sorted(ms, key=self.ring.mono_deg):
                if not any(self.ring.mono_divides(g, m) for g in mins):
                    mins.append(m)
            out[c] = tuple(mins)
        return out


def groebner_basis(ring, gens, twists):
    """Reduced Groebner basis of the submodule generated by ``gens`` over S."""
    order = term_key(ring, len(twists))
    basis = _buchberger_core(order, gens, twists)[0]
    return GroebnerBasis(order, _interreduce(order, basis), twists)


def syzygy_generators(ring, gens, twists):
    """Generators of the syzygy module of ``gens`` over S.

    The returned vectors live in the free module with one component per
    generator; applying the generators to each syzygy gives zero.  They form
    a Groebner basis with respect to the Schreyer order induced by the run,
    and come sorted by leading term in that order.
    """
    order = term_key(ring, len(twists))
    _, _, syz, rep_order = _buchberger_core(order, gens, twists, track=True)
    return [_unpack(rep_order, s) for s in sorted((s for s in syz if s), key=max)]


# ---------------------------------------------------------------------------
# quotient-ring plumbing


def ideal_block_gens(ring_q, ncomp):
    """Generators of I*F inside a free module with ``ncomp`` components."""
    out = []
    for h in ring_q.gb:
        for c in range(ncomp):
            out.append({(c, m): coef for m, coef in h.items()})
    return out


def vec_nf_ideal(ring_q, v, m=None):
    """Componentwise normal form of v, or of x^m * v, modulo the ideal.

    Normal form is linear, so this is the sum of c times the row
    ``ring_q.mono_nf(m + m_t)`` over the terms c*x^(m_t) e_j of v; x^m * v
    is never built.  Components come in order of first appearance, each in
    decreasing term order: one row is already in that order, a component
    summing several is sorted.
    """
    if not ring_q.gb:
        return dict(v) if m is None else vec_mul_term(v, m, 1, ring_q.p)
    p = ring_q.ambient.p
    row = ring_q.mono_nf
    out = {}
    rank = {}  # component -> place of its first appearance
    for (c, t), coef in v.items():
        rank.setdefault(c, len(rank))
        for u, a in row(t if m is None else tuple(map(add, t, m))).items():
            k = (c, u)
            val = (out.get(k, 0) + a * coef) % p
            if val:
                out[k] = val
            else:
                out.pop(k, None)
    if len(rank) < len(v) and len(out) > 1:
        key = ring_q.ambient.mono_key
        return {k: out[k] for k in
                sorted(out, key=lambda k: (rank[k[0]], -key(k[1])))}
    return out


def module_groebner(ring_q, gens, twists):
    """Groebner basis of <gens> + I*F, for membership over R = S/I."""
    ncomp = len(twists)
    return groebner_basis(ring_q.ambient, list(gens) + ideal_block_gens(ring_q, ncomp),
                          twists)


def syzygies_over_quotient(ring_q, cols, twists):
    """Generators of the R-syzygy module of the given columns.

    Computed as S-syzygies of ``[cols | I-blocks]`` projected to the
    col-coordinates, with coefficients reduced mod I.
    """
    return kernel_into_quotient(ring_q, cols, [], twists)


def kernel_into_quotient(ring_q, map_cols, target_rels, target_twists):
    """Generators of ``{v : (map)(v) in <target_rels> + I*F_target}``.

    ``map_cols`` are the columns of a map of free modules over R; the result
    consists of vectors with one component per column.
    """
    ring = ring_q.ambient
    n = len(map_cols)
    combined = list(map_cols) + list(target_rels) + \
        ideal_block_gens(ring_q, len(target_twists))
    syz = syzygy_generators(ring, combined, target_twists)
    seen = set()
    out = []
    for s in syz:
        v = {(c, m): coef for (c, m), coef in s.items() if c < n}
        v = vec_nf_ideal(ring_q, v)
        if not v:
            continue
        k = tuple(sorted(v.items()))
        if k not in seen:
            seen.add(k)
            out.append(v)
    return out


def express_in_terms(ring_q, targets, gens, aux, twists):
    """Lift each target through ``gens`` modulo <aux> + I*F.

    One tracked run on ``[gens | aux | I-blocks]`` serves the whole batch;
    each target is then reduced against its basis with tracking.  Returns,
    per target, None when it does not lie in the combined submodule, else
    the vector c with ``target = sum(c_i * gens_i)`` modulo <aux> + I*F:
    component i is the coefficient of ``gens_i``, reduced mod I.
    """
    ring = ring_q.ambient
    p = ring.p
    order = term_key(ring, len(twists))
    combined = list(gens) + list(aux) + ideal_block_gens(ring_q, len(twists))
    basis, reps, _, rep_order = _buchberger_core(order, combined, twists,
                                                 track=True)
    slots = _slots(order, twists)[0]
    # the run's basis is monic and nonzero, so _prepare keeps its indices
    prepared = _prepare(order, basis)
    rsh = rep_order.bits - order.bits
    out = []
    for v in targets:
        r, quot = _reduce(order, _pack(order, slots, v)[0], prepared, track=True)
        if r:
            out.append(None)
            continue
        coeff = {}
        for idx, qd in quot.items():
            for d, q in qd.items():
                _isub_shifted(coeff, reps[idx], d << rsh, (-q) % p, p)
        coeff = _unpack(rep_order, coeff)
        out.append(vec_from_polys(ring_q.nf(vec_component(coeff, i))
                                  for i in range(len(gens))))
    return out


# ---------------------------------------------------------------------------
# minimal generators degree by degree


def minimal_by_degree(ring, pieces, mul_nf, modulo=None):
    """The strand test of La Scala and Stillman (JSC 1998), in any dimension.

    ``pieces`` gives ``(D, vectors of degree D)`` for consecutive D.  The
    span in degree D is sum_x x * span_{D - w(x)}, plus ``modulo[D]``
    (``{D: echelon pivots}``) if given, plus the earlier vectors of degree D;
    a vector is kept iff it is independent of that span.  ``mul_nf(v, m)``
    writes x^m * v in the coordinates of the vectors.
    """
    p = ring.p
    variables = [(tuple(int(i == k) for i in range(ring.nvars)), w)
                 for k, w in enumerate(ring.weights)]
    top = max(ring.weights)
    spans = {}
    kept = []
    for d, vectors in pieces:
        span = dict(modulo.get(d, {})) if modulo else {}
        for x, w in variables:
            for row in spans.get(d - w, {}).values():
                row_insert(mul_nf(row, x), span, None, p)
        kept.extend(v for v in vectors if row_insert(dict(v), span, None, p))
        spans[d] = span
        spans.pop(d - top, None)  # no later degree reads it
    return kept


def minimal_generators(ring_q, vectors, twists, modulo=None):
    """A minimal homogeneous generating set of the R-submodule <vectors>.

    The reduced vectors go to ``minimal_by_degree`` by increasing degree,
    with coordinates in F/(I*F); when ``modulo`` (a Groebner basis of an
    auxiliary submodule B + I*F) is given, in F/B instead, yielding minimal
    generators of the image of <vectors> there.
    """
    ring = ring_q.ambient
    if modulo is None:
        reduce = mul_nf = partial(vec_nf_ideal, ring_q)
    else:
        reduce = modulo.normal_form

        def mul_nf(v, m):
            return reduce(vec_mul_term(v, m, 1, ring.p))
    by_degree = defaultdict(list)
    for v in vectors:
        v = reduce(v)
        if not v:
            continue
        d = vec_degree(ring, v, twists)
        if d is None:
            raise InhomogeneousError("minimal_generators needs homogeneous input")
        by_degree[d].append(v)
    if not by_degree:
        return []
    return minimal_by_degree(ring, ((d, by_degree.get(d, ())) for d in
                                    range(min(by_degree), max(by_degree) + 1)),
                             mul_nf)


# ---------------------------------------------------------------------------
# presentation utilities


def minimalize_presentation(ring_q, cols, twists):
    """Cancel degree-zero unit entries of a homogeneous presentation matrix.

    Repeatedly pivots on unit entries, deleting their row (generator) and
    column (relation); the cokernel is preserved up to isomorphism.  Returns
    ``(cols, twists, kept_rows)`` with kept_rows the surviving generator
    indices of the input.
    """
    ring = ring_q.ambient
    p = ring.p
    zero = ring.zero_mono
    cols = [vec_nf_ideal(ring_q, c) for c in cols]
    cols = [c for c in cols if c]
    twists = list(twists)
    kept_rows = list(range(len(twists)))
    while True:
        pivot = None
        for ci, col in enumerate(cols):
            for (r, m), coef in col.items():
                if m == zero:
                    pivot = (r, ci, coef)
                    break
            if pivot:
                break
        if pivot is None:
            break
        r, ci, u = pivot
        uinv = ring.field.inv(u)
        pcol = cols[ci]
        new_cols = []
        for cj, col in enumerate(cols):
            if cj == ci:
                continue
            entry = vec_component(col, r)
            if entry:
                col = dict(col)
                for m, c in entry.items():
                    vec_isub_term_mul(col, pcol, m, c * uinv, p)
                col = vec_nf_ideal(ring_q, col)
            if col:
                new_cols.append(col)
        # drop row r and reindex
        out = []
        for col in new_cols:
            nc = {}
            for (j, m), c in col.items():
                if j == r:
                    raise AssertionError("pivot row not cleared")
                nc[(j - 1 if j > r else j, m)] = c
            out.append(nc)
        cols = out
        twists.pop(r)
        kept_rows.pop(r)
    return cols, tuple(twists), kept_rows


def poly_det(ring, entry, rows, cols):
    """Determinant over S by expansion; entry(r, c) returns a polynomial."""
    memo = {}

    def rec(rs, cs):
        if not rs:
            return ring.one()
        k = (rs, cs)
        got = memo.get(k)
        if got is not None:
            return got
        r0 = rs[0]
        total = ring.zero()
        for pos, c in enumerate(cs):
            e = entry(r0, c)
            if not e:
                continue
            sub = rec(rs[1:], cs[:pos] + cs[pos + 1:])
            term = ring.mul(e, sub)
            total = ring.add(total, term) if pos % 2 == 0 else ring.sub(total, term)
        memo[k] = total
        return total

    return rec(tuple(rows), tuple(cols))


# ---------------------------------------------------------------------------
# colon and saturation


def colon_by_elements(ring_q, u_cols, twists, elems):
    """Generators of ``U : (elems) = {v in F : e*v in U for all e}``."""
    ring = ring_q.ambient
    n = len(twists)
    elems = [e for e in elems if e]
    if not elems:
        raise ValueError("colon by the zero ideal")
    map_cols = []
    for j in range(n):
        col = {}
        for k, e in enumerate(elems):
            for m, c in e.items():
                col[(k * n + j, m)] = c
        map_cols.append(col)
    target_rels = []
    for k in range(len(elems)):
        for u in u_cols:
            target_rels.append({(k * n + c, m): coef for (c, m), coef in u.items()})
    target_twists = []
    for e in elems:
        d = ring.homogeneous_degree(e)
        if d is None:
            raise InhomogeneousError("colon needs homogeneous ideal elements")
        target_twists.extend(t - d for t in twists)
    return kernel_into_quotient(ring_q, map_cols, target_rels, tuple(target_twists))


def saturate(ring_q, u_cols, twists, ideal_elems):
    """``U : J^infinity`` by iterating colon until stabilization."""
    cur = [vec_nf_ideal(ring_q, c) for c in u_cols]
    cur = [c for c in cur if c]
    steps = 0
    while True:
        nxt = colon_by_elements(ring_q, cur, twists, ideal_elems)
        gb = module_groebner(ring_q, cur, twists)
        if all(gb.contains(v) for v in nxt):
            return cur, steps
        cur = minimal_generators(ring_q, cur + nxt, twists)
        steps += 1
