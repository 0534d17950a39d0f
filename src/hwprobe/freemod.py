"""Elements of graded free modules and the term orders on them.

A free-module element ("vector") over ``PolyRing`` S with r components is a
dict mapping ``(component, monomial)`` to a nonzero coefficient.  The free
module itself is described by a tuple of generator degrees (twists): the
basis vector e_j of ``F = (+)_j S(-a_j)`` has degree ``a_j``, so the term
``(j, m)`` has degree ``deg(m) + a_j``.

A term order on a free module is a ``TermOrder``: it maps each term to one
int whose integer order is the term order, linear in the monomial (built on
the ring's ``mono_key``).  ``term_key`` gives term-over-position and
``schreyer_key`` the order a generator list induces.  The Groebner core
computes on dicts keyed by these ints ("packed" vectors); everything else,
and every public result, keeps the tuple keys above.

This module is the one home of sparse F_p arithmetic on vectors.  No
result depends on the order of a vector's dict entries:

* ``ring.isub`` (acc -= c*v, in place) is the only accumulate loop on
  tuple keys: ``sum_rows``, ``row_insert`` and ``PolyRing.add``, ``sub``
  and ``mul`` all run on it;
* ``isub_shifted`` is its twin on packed int keys, where x^m is one added
  int: the Groebner core's division and ``modules.Blocks.mul_nf``, on the
  strand frame's ints (``pack_term``), both run on it;
* ``sum_rows`` is the only sum of rows of a table on tuple keys:
  ``vec_nf_ideal`` and ``isomorphism`` read a memoized NF table through it,
  and ``matvec`` (and so ``compose_cols``) the shifted columns of a matrix;
  ``Blocks.mul_nf`` is its twin on packed ints.  ``vec_nf_ideal`` and
  ``isomorphism`` stay on tuples: packing at their boundary costs more than
  the loop saves;
* ``transpose_cols`` is the only transpose of a column list;
* ``row_insert`` is the only sparse echelon routine: rows are dicts of any
  hashable key, the pivot of a row is its ``key``-maximal entry;
* ``PolyRing.add``, ``sub`` and ``scale`` never look at keys, so they serve
  vectors as well as polynomials.
"""

import struct
from operator import add

from .ring import DEGREE_LIMIT, FIELD_BITS, isub

Vec = dict  # (component, Mono) -> coefficient


class TermOrder:
    """A term order on a free module, as one int per term.

    The term ``(c, m)`` is the int ``((K(m) + shift[c]) << bits) | code[c]``,
    where K is the ring's ``mono_key`` and ``shift[c]`` the key of a monomial
    of weighted degree ``lift[c]``.  Comparing the ints compares the terms:
    the monomial part first, then the code.  The form is linear in m, so
    multiplying a term by x^u adds ``K(u) << bits`` to it, and two terms with
    the same code divide each other iff their monomials do.
    """

    def __init__(self, ring, shifts, codes, lifts, bits):
        self.ring = ring
        self.shifts = tuple(shifts)
        self.codes = tuple(codes)
        self.lifts = tuple(lifts)
        self.bits = bits
        self.mask = (1 << bits) - 1
        # code -> (component, shift), to unpack a term
        self.where = {code: (c, shift) for c, (code, shift)
                      in enumerate(zip(self.codes, self.shifts))}

    def __call__(self, t) -> int:
        c, m = t
        deg, k = self.ring.mono_deg_key(m)
        if deg + self.lifts[c] >= DEGREE_LIMIT:
            raise ValueError(f"term {t} is past the packing bound")
        return ((k + self.shifts[c]) << self.bits) | self.codes[c]


def _index_bits(count):
    return max(count - 1, 0).bit_length()


def term_key(ring, ncomp):
    """Term-over-position order on a free module with ``ncomp`` components:
    the ring's order on monomials first, ties going to the lower component."""
    ncomp = max(ncomp, 1)  # a zero generator's lead is (0, 1), even at rank 0
    bits = _index_bits(ncomp)
    top = (1 << bits) - 1
    return TermOrder(ring, (0,) * ncomp, [top - c for c in range(ncomp)],
                     (0,) * ncomp, bits)


def schreyer_key(prev, leads):
    """Order on the free module induced by leading terms of a generator list.

    ``u e_i > v e_j`` iff ``lt(u g_i) > lt(v g_j)`` under ``prev``, with ties
    broken by the smaller index i.  ``leads[i]`` is the ``prev`` key of the
    leading term ``(component, monomial)`` of g_i.  The form is linear in u:
    ``u e_i`` is ``((prev key of u lt(g_i)) << b) | (2^b - 1 - i)``.
    """
    bits = _index_bits(len(leads))
    top = (1 << bits) - 1
    ring = prev.ring
    shifts, codes, lifts = [], [], []
    for i, lead in enumerate(leads):
        code = lead & prev.mask
        c, shift = prev.where[code]
        shifts.append(lead >> prev.bits)
        codes.append((code << bits) | (top - i))
        lifts.append(ring.mono_deg(ring.key_mono((lead >> prev.bits) - shift))
                     + prev.lifts[c])
    return TermOrder(ring, shifts, codes, lifts, prev.bits + bits)


def unit_vector(ring, comp) -> Vec:
    return {(comp, ring.zero_mono): 1}


def vec_from_polys(polys) -> Vec:
    """Stack polynomials into a vector: the i-th becomes component i."""
    return {(i, m): c for i, f in enumerate(polys) for m, c in f.items()}


def vec_mul_term(v: Vec, m, c: int, p: int) -> Vec:
    """Multiply a vector by the scalar term c*x^m."""
    c %= p
    if not c:
        return {}
    out = {}
    for (comp, mm), cc in v.items():
        out[(comp, tuple(x + y for x, y in zip(mm, m)))] = cc * c % p
    return out


def isub_shifted(acc, v, d, c, p):
    """In place: acc -= c * v moved by d, for packed vectors: the entry of v
    at t lands at t + d.  With d the packed x^u that is acc -= c * x^u * v."""
    for t, cc in v.items():
        t += d
        val = (acc.get(t, 0) - c * cc) % p
        if val:
            acc[t] = val
        else:
            acc.pop(t, None)


def sum_rows(p, row, v: Vec, m=None) -> Vec:
    """The image of v, or of x^m * v, under a linear map given by its table.

    ``row(j, t)`` is the image of x^t * e_j (for a normal form table, the
    normal form of x^t * e_j); this sums c * row(j, t + m) over the terms
    c * x^t * e_j of v.
    """
    out = {}
    for (j, t), coef in v.items():
        isub(out, row(j, t if m is None else tuple(map(add, t, m))), -coef, p)
    return out


def pack_mono(m) -> int:
    """m_1 << (n - 1) W | ... | m_n, W = ``ring.FIELD_BITS``, which x^m adds
    to a packed term; ValueError once an exponent reaches DEGREE_LIMIT."""
    f = 0
    for e in m:
        if e >= DEGREE_LIMIT:
            raise ValueError(f"monomial {m} is past the packing bound")
        f = f << FIELD_BITS | e
    return f


def unpack_mono(f, nvars):
    return struct.unpack(f">{nvars}H", f.to_bytes(2 * nvars, "big"))


def pack_term(t) -> int:
    """The strand frame's int for a term (c, m), (c + 1) << n W over
    ``pack_mono(m)``, or i for an identity coordinate (-1, i); integer
    order is tuple order."""
    c, m = t
    return m if c < 0 else (c + 1) << FIELD_BITS * len(m) | pack_mono(m)


def unpack_term(t, nvars):
    c, f = divmod(t, 1 << FIELD_BITS * nvars)
    return (-1, t) if c == 0 else (c - 1, unpack_mono(f, nvars))


def pack_vec(v: Vec) -> dict:
    return {pack_term(t): c for t, c in v.items()}


def vec_degree(ring, v: Vec, twists):
    """Common degree of the terms of a homogeneous vector.

    Returns None for inhomogeneous vectors and 0 for the zero vector.
    """
    degs = {ring.mono_deg(m) + twists[c] for c, m in v}
    if not degs:
        return 0
    if len(degs) > 1:
        return None
    return degs.pop()


def vec_component(v: Vec, comp) -> dict:
    """Extract one component as a polynomial."""
    return {m: c for (cc, m), c in v.items() if cc == comp}


def transpose_cols(cols, nrows):
    """Columns of the transpose: entry (r, m) of column j goes to (j, m) in
    column r, for a matrix with ``nrows`` rows."""
    out = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for (r, m), c in col.items():
            out[r][(j, m)] = c
    return out


def matvec(ring, cols, v: Vec) -> Vec:
    """Apply the matrix with the given columns to v (components index cols)."""
    p = ring.p
    return sum_rows(p, lambda c, m: vec_mul_term(cols[c], m, 1, p), v)


def compose_cols(ring, outer_cols, inner_cols):
    """Columns of (outer o inner): inner maps into the source of outer."""
    return [matvec(ring, outer_cols, col) for col in inner_cols]


def row_insert(row: dict, pivots: dict, key, p: int):
    """Reduce a row against monic echelon pivots, in place, and add it, made
    monic, as a new pivot.

    ``pivots`` maps a pivot key to its row; a row's pivot is its
    ``key``-maximal entry.  Returns the new pivot row, or None when the row
    reduces to zero.
    """
    while row:
        # max parses a key argument slowly, so it is passed only when set
        t = max(row) if key is None else max(row, key=key)
        c = row[t]
        piv = pivots.get(t)
        if piv is None:
            if c != 1:
                inv = pow(c, p - 2, p)
                row = {tt: cc * inv % p for tt, cc in row.items()}
            pivots[t] = row
            return row
        isub(row, piv, c, p)
    return None
