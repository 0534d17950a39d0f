"""Elements of graded free modules and the term orders on them.

A free-module element ("vector") over ``PolyRing`` S with r components is a
dict mapping ``(component, monomial)`` to a nonzero coefficient.  The free
module itself is described by a tuple of generator degrees (twists): the
basis vector e_j of ``F = (+)_j S(-a_j)`` has degree ``a_j``, so the term
``(j, m)`` has degree ``deg(m) + a_j``.

This module is the one home of sparse F_p arithmetic on such dicts:

* ``vec_isub_term_mul`` is the only loop that adds c*x^m*v into an
  accumulator; ``matvec`` (and so ``compose_cols``) calls it once per term;
* ``row_reduce`` / ``row_insert`` are the only sparse echelon routine: rows
  are dicts of any hashable key, the pivot of a row is its ``key``-maximal
  entry;
* ``PolyRing.add``, ``sub`` and ``scale`` never look at keys, so they serve
  vectors as well as polynomials.
"""

Vec = dict  # (component, Mono) -> coefficient


def term_key(ring):
    """Term-over-position order: the ring's order on monomials first, ties
    going to the lower component."""
    mk = ring.mono_key
    return lambda t: (mk(t[1]), -t[0])


def schreyer_key(prev_key, lts):
    """Order on the free module induced by leading terms of a generator list.

    ``u e_i > v e_j`` iff ``lt(u g_i) > lt(v g_j)`` under ``prev_key``, with
    ties broken by the smaller index i.  ``lts[i]`` is the leading term
    ``(component, monomial)`` of g_i in the previous free module.
    """
    lts = tuple(lts)

    def key(t):
        i, u = t
        c, m = lts[i]
        return (prev_key((c, tuple(x + y for x, y in zip(u, m)))), -i)

    return key


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


def vec_isub_term_mul(acc: Vec, v: Vec, m, c: int, p: int) -> None:
    """In place: acc -= c * x^m * v."""
    for (comp, mm), cc in v.items():
        t = (comp, tuple(x + y for x, y in zip(mm, m)))
        val = (acc.get(t, 0) - c * cc) % p
        if val:
            acc[t] = val
        else:
            acc.pop(t, None)


def vec_leading(v: Vec, key):
    t = max(v, key=key)
    return t, v[t]


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


def matvec(ring, cols, v: Vec) -> Vec:
    """Apply the matrix with the given columns to v (components index cols)."""
    p = ring.p
    out = {}
    for (c, m), coef in v.items():
        vec_isub_term_mul(out, cols[c], m, -coef, p)
    return out


def compose_cols(ring, outer_cols, inner_cols):
    """Columns of (outer o inner): inner maps into the source of outer."""
    return [matvec(ring, outer_cols, col) for col in inner_cols]


def row_reduce(row: dict, pivots: dict, key, p: int) -> dict:
    """Reduce a row against monic echelon pivots, in place.

    ``pivots`` maps a pivot key to its row; a row's pivot is its
    ``key``-maximal entry.  Stops at the first leading entry without a pivot.
    """
    while row:
        t = max(row, key=key)
        piv = pivots.get(t)
        if piv is None:
            return row
        c = row[t]
        for tt, cc in piv.items():
            v = (row.get(tt, 0) - c * cc) % p
            if v:
                row[tt] = v
            else:
                row.pop(tt, None)
    return row


def row_insert(row: dict, pivots: dict, key, p: int):
    """Reduce a row and add it, made monic, as a new pivot.

    Returns the new pivot row, or None when the row reduces to zero.
    """
    row = row_reduce(row, pivots, key, p)
    if not row:
        return None
    t = max(row, key=key)
    c = row[t]
    if c != 1:
        inv = pow(c, p - 2, p)
        row = {tt: cc * inv % p for tt, cc in row.items()}
    pivots[t] = row
    return row
