"""Buchberger machinery for homogeneous submodules of graded free modules.

Everything here computes over the ambient polynomial ring S.  Quotient-ring
computations R = S/I pass the ideal's Groebner basis as extra generators in
every component (the "augmentation") and project results back; the helpers
taking a ``ring_q`` argument only use its ``ambient``, ``gb`` and ``nf``
attributes.

Syzygies come from Schreyer's construction: the basis is accumulated without
discarding, every S-pair is reduced with tracked division quotients, and each
reduction to zero certifies one syzygy of the *original* generators.  No pair
selection criterion is applied in tracked runs; completeness of the certified
syzygies depends on processing every pair.
"""

import heapq
from collections import defaultdict

from .freemod import (
    row_insert,
    schreyer_key,
    term_key,
    unit_vector,
    vec_component,
    vec_degree,
    vec_from_polys,
    vec_isub_term_mul,
    vec_leading,
    vec_mul_term,
)
from .ring import memoized


class InhomogeneousError(ValueError):
    """Input is not homogeneous for the ring's grading."""


# ---------------------------------------------------------------------------
# division


def _reduce(ring, v, basis, lts, by_comp, key, track=False):
    """Full normal form of v against a monic basis.

    Returns ``(remainder, quotients)`` where quotients maps a basis index to
    ``{monomial: coefficient}`` with ``v = sum(q * basis) + remainder``.
    """
    p = ring.p
    divides = ring.mono_divides
    work = dict(v)
    rem = {}
    quot = {} if track else None
    while work:
        t = max(work, key=key)
        comp, m = t
        c = work[t]
        found = -1
        for idx in by_comp.get(comp, ()):
            if divides(lts[idx][1], m):
                found = idx
                break
        if found < 0:
            rem[t] = c
            del work[t]
            continue
        u = tuple(x - y for x, y in zip(m, lts[found][1]))
        vec_isub_term_mul(work, basis[found], u, c, p)
        if track:
            qd = quot.setdefault(found, {})
            qc = (qd.get(u, 0) + c) % p
            if qc:
                qd[u] = qc
            else:
                del qd[u]
    return rem, quot


def reduce_poly(ring, f, gb_polys):
    """Normal form of a polynomial modulo a list of polynomials."""
    if not gb_polys:
        return dict(f)
    key = term_key(ring)
    basis, lts, by_comp = _prepare(ring, [{(0, m): c for m, c in g.items()}
                                          for g in gb_polys if g])
    rem, _ = _reduce(ring, {(0, m): c for m, c in f.items()},
                     basis, lts, by_comp, key)
    return {m: c for (_, m), c in rem.items()}


def _prepare(ring, vectors):
    """Monic-normalize a list of vectors; return (basis, lts, by_comp)."""
    inv = ring.field.inv
    key = term_key(ring)
    basis, lts = [], []
    by_comp = defaultdict(list)
    for v in vectors:
        if not v:
            continue
        (c, m), lc = vec_leading(v, key)
        if lc != 1:
            v = ring.scale(v, inv(lc))
        by_comp[c].append(len(basis))
        basis.append(v)
        lts.append((c, m))
    return basis, lts, by_comp


# ---------------------------------------------------------------------------
# Buchberger


def _check_homogeneous(ring, gens, twists):
    for g in gens:
        if vec_degree(ring, g, twists) is None:
            raise InhomogeneousError(
                "generators must be homogeneous for the ring's grading")


def _buchberger_core(ring, gens, twists, key, track=False):
    """Accumulating Buchberger run.

    Returns ``(basis, reps, syzygies)``: a (non-reduced) Groebner basis
    containing all nonzero input generators, the representation of each basis
    element in terms of the inputs (tracked runs only), and the syzygies of
    the inputs certified by reductions to zero.
    """
    p = ring.p
    inv = ring.field.inv
    mono_lcm = ring.mono_lcm
    mono_deg = ring.mono_deg

    basis, lts, reps = [], [], []
    by_comp = defaultdict(list)
    heap = []
    seq = 0
    syzygies = []

    def add(v, rep):
        nonlocal seq
        (c, m), lc = vec_leading(v, key)
        if lc != 1:
            s = inv(lc)
            v = ring.scale(v, s)
            if track:
                rep = ring.scale(rep, s)
        idx = len(basis)
        for i in by_comp[c]:
            lcm = mono_lcm(lts[i][1], m)
            heapq.heappush(heap, (mono_deg(lcm) + twists[c], seq, i, idx))
            seq += 1
        by_comp[c].append(idx)
        basis.append(v)
        lts.append((c, m))
        if track:
            reps.append(rep)

    for i, g in enumerate(gens):
        if not g:
            if track:
                syzygies.append(unit_vector(ring, i))
            continue
        add(dict(g), unit_vector(ring, i))

    while heap:
        _, _, i, j = heapq.heappop(heap)
        (ci, mi) = lts[i]
        (_, mj) = lts[j]
        lcm = mono_lcm(mi, mj)
        ui = tuple(a - b for a, b in zip(lcm, mi))
        uj = tuple(a - b for a, b in zip(lcm, mj))
        s = vec_mul_term(basis[i], ui, 1, p)
        vec_isub_term_mul(s, basis[j], uj, 1, p)
        rep = None
        if track:
            rep = vec_mul_term(reps[i], ui, 1, p)
            vec_isub_term_mul(rep, reps[j], uj, 1, p)
        if not s:
            if track and rep:
                syzygies.append(rep)
            continue
        r, quot = _reduce(ring, s, basis, lts, by_comp, key, track)
        if track:
            for idx, qd in quot.items():
                for u, q in qd.items():
                    vec_isub_term_mul(rep, reps[idx], u, q, p)
        if r:
            add(r, rep)
        elif track and rep:
            syzygies.append(rep)
    return basis, reps, syzygies


def _interreduce(ring, basis):
    """Canonical reduced basis under ``term_key``: minimal leading terms,
    fully tail-reduced.

    One pass suffices: every tail term of an element is smaller than its
    leading term, so reducing the tail against the whole kept set never
    meets that element's own leading term, and no leading term changes.
    """
    divides = ring.mono_divides
    inv = ring.field.inv
    key = term_key(ring)
    items = sorted((v for v in basis if v), key=lambda g: key(max(g, key=key)))
    kept = []
    kept_lts = []
    for g in items:
        c, m = max(g, key=key)
        if any(cc == c and divides(mm, m) for cc, mm in kept_lts):
            continue
        kept.append(g)
        kept_lts.append((c, m))
    b, lts, by_comp = _prepare(ring, kept)
    out = []
    for g, lt in zip(kept, kept_lts):
        lc = g[lt]
        tail = {t: v for t, v in g.items() if t != lt}
        rem, _ = _reduce(ring, tail, b, lts, by_comp, key)
        if rem != tail:
            g = {lt: lc, **rem}
        out.append(ring.scale(g, inv(lc)))
    return tuple(out)


class GroebnerBasis:
    """A reduced Groebner basis of a homogeneous submodule of a free module."""

    def __init__(self, ring, elements, twists):
        self.ring = ring
        self.twists = tuple(twists)
        self.key = term_key(ring)
        self.elements = tuple(elements)
        self._basis, self._lts, self._by_comp = _prepare(ring, self.elements)

    def normal_form(self, v):
        rem, _ = _reduce(self.ring, v, self._basis, self._lts,
                         self._by_comp, self.key)
        return rem

    def contains(self, v) -> bool:
        return not self.normal_form(v)

    def leading_terms(self):
        return tuple(self._lts)

    @memoized
    def initial_module(self):
        """Minimal monomial generators of the initial module, per component."""
        per_comp = defaultdict(list)
        for c, m in self._lts:
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
    key = term_key(ring)
    _check_homogeneous(ring, gens, twists)
    basis, _, _ = _buchberger_core(ring, gens, twists, key)
    return GroebnerBasis(ring, _interreduce(ring, basis), twists)


def syzygy_generators(ring, gens, twists):
    """Generators of the syzygy module of ``gens`` over S.

    The returned vectors live in the free module with one component per
    generator; applying the generators to each syzygy gives zero.  They form
    a Groebner basis with respect to the Schreyer order induced by the run.
    """
    key = term_key(ring)
    _check_homogeneous(ring, gens, twists)
    _, _, syz = _buchberger_core(ring, gens, twists, key, track=True)
    skey = schreyer_order_for(ring, gens)
    out = [s for s in syz if s]
    out.sort(key=lambda s: skey(max(s, key=skey)))
    return out


def schreyer_order_for(ring, gens):
    """The key of the Schreyer order induced on syzygies of ``gens``."""
    key = term_key(ring)
    lead = [vec_leading(g, key)[0] if g else (0, ring.zero_mono) for g in gens]
    return schreyer_key(key, lead)


# ---------------------------------------------------------------------------
# quotient-ring plumbing


def ideal_block_gens(ring_q, ncomp):
    """Generators of I*F inside a free module with ``ncomp`` components."""
    out = []
    for h in ring_q.gb:
        for c in range(ncomp):
            out.append({(c, m): coef for m, coef in h.items()})
    return out


def vec_nf_ideal(ring_q, v):
    """Componentwise normal form modulo the defining ideal."""
    if not ring_q.gb:
        return dict(v)
    comps = defaultdict(dict)
    for (c, m), coef in v.items():
        comps[c][m] = coef
    out = {}
    for c, f in comps.items():
        for m, coef in ring_q.nf(f).items():
            out[(c, m)] = coef
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


def express_in_terms(ring_q, v, gens, aux, twists):
    """Coefficients c with ``v = sum(c_i * gens_i)`` modulo <aux> + I*F.

    Returns a list of polynomials (one per generator) or None when v does
    not lie in the combined submodule.
    """
    ring = ring_q.ambient
    p = ring.p
    key = term_key(ring)
    combined = list(gens) + list(aux) + ideal_block_gens(ring_q, len(twists))
    _check_homogeneous(ring, combined, twists)
    basis, reps, _ = _buchberger_core(ring, combined, twists, key, track=True)
    b, lts, by_comp = _prepare(ring, basis)
    # _prepare preserves order for monic nonzero input; basis is already monic
    r, quot = _reduce(ring, v, b, lts, by_comp, key, track=True)
    if r:
        return None
    coeff = {}
    for idx, qd in quot.items():
        for u, q in qd.items():
            vec_isub_term_mul(coeff, reps[idx], u, (-q) % p, p)
    out = []
    for i in range(len(gens)):
        out.append(ring_q.nf(vec_component(coeff, i)))
    return out


# ---------------------------------------------------------------------------
# minimal generators via degreewise linear algebra


def minimal_generators(ring_q, vectors, twists, modulo=None):
    """A minimal homogeneous generating set of the R-submodule <vectors>.

    Processes generators by increasing degree; a generator is kept iff it is
    linearly independent of the span of the previously kept ones in its
    degree, with coordinates taken in F/(I*F).  When ``modulo`` (a Groebner
    basis of an auxiliary submodule B + I*F) is given, coordinates are taken
    in F/B instead, yielding minimal generators of the image of <vectors>
    there.
    """
    ring = ring_q.ambient
    p = ring.p
    key = term_key(ring)
    reduce = modulo.normal_form if modulo is not None else (
        lambda v: vec_nf_ideal(ring_q, v))
    items = []
    for i, v in enumerate(vectors):
        v = reduce(v)
        if not v:
            continue
        d = vec_degree(ring, v, twists)
        if d is None:
            raise InhomogeneousError("minimal_generators needs homogeneous input")
        items.append((d, i, v))
    items.sort(key=lambda t: (t[0], t[1]))
    kept = []
    idx = 0
    while idx < len(items):
        d = items[idx][0]
        pivots = {}
        for dg, g in kept:
            e = d - dg
            if e < 0:
                continue
            for m in ring.monomials_of_degree(e):
                row_insert(reduce(vec_mul_term(g, m, 1, p)), pivots, key, p)
        while idx < len(items) and items[idx][0] == d:
            v = items[idx][2]
            if row_insert(dict(v), pivots, key, p) is not None:
                kept.append((d, v))
            idx += 1
    return [g for _, g in kept]


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


def invert_graded_matrix(ring_q, cols, row_twists):
    """Inverse of a square graded matrix over R whose determinant is a unit."""
    ring = ring_q.ambient
    n = len(cols)
    if n != len(row_twists):
        raise ValueError("matrix must be square")

    def entry(r, c):
        return vec_component(cols[c], r)

    det = ring_q.nf(poly_det(ring, entry, range(n), range(n)))
    u = det.get(ring.zero_mono)
    if len(det) != 1 or not u:
        raise ValueError("matrix is not invertible over the quotient ring")
    uinv = ring.field.inv(u)

    def cofactor(i, j):
        rows = tuple(r for r in range(n) if r != j)
        cs = tuple(c for c in range(n) if c != i)
        sign = -1 if (i + j) % 2 else 1
        return ring_q.nf(ring.scale(poly_det(ring, entry, rows, cs), sign * uinv))

    return [vec_from_polys(cofactor(i, j) for i in range(n)) for j in range(n)]


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
