"""Elements of graded free modules and the term orders on them.

A free-module element ("vector") over ``PolyRing`` S with r components is a
dict mapping ``(component, monomial)`` to a nonzero coefficient.  The free
module itself is described by a tuple of generator degrees (twists): the
basis vector e_j of ``F = (+)_j S(-a_j)`` has degree ``a_j``, so the term
``(j, m)`` has degree ``deg(m) + a_j``.
"""

Vec = dict  # (component, Mono) -> coefficient


class TermOverPosition:
    """Compare by the ring order on monomials; ties go to the lower component."""

    def __init__(self, ring):
        self.ring = ring
        mk = ring.mono_key
        self.key = lambda t: (mk(t[1]), -t[0])


class SchreyerOrder:
    """Order on the free module induced by leading terms of a generator list.

    ``u e_i > v e_j`` iff ``lt(u g_i) > lt(v g_j)`` in the previous order,
    with ties broken by the smaller index i.  ``lts[i]`` is the leading term
    ``(component, monomial)`` of g_i in the previous free module.
    """

    def __init__(self, prev_key, lts):
        self.lts = tuple(lts)

        def key(t):
            i, u = t
            c, m = self.lts[i]
            return (prev_key((c, tuple(x + y for x, y in zip(u, m)))), -i)

        self.key = key


def unit_vector(ring, comp) -> Vec:
    return {(comp, ring.zero_mono): 1}


def vec_sub(a: Vec, b: Vec, p: int) -> Vec:
    out = dict(a)
    for t, c in b.items():
        v = (out.get(t, 0) - c) % p
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return out


def vec_scale(v: Vec, c: int, p: int) -> Vec:
    c %= p
    if not c:
        return {}
    if c == 1:
        return dict(v)
    return {t: cc * c % p for t, cc in v.items()}


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
        for (j, mm), cc in cols[c].items():
            t = (j, tuple(x + y for x, y in zip(m, mm)))
            val = (out.get(t, 0) + coef * cc) % p
            if val:
                out[t] = val
            else:
                del out[t]
    return out


def compose_cols(ring, outer_cols, inner_cols):
    """Columns of (outer o inner): inner maps into the source of outer."""
    return [matvec(ring, outer_cols, col) for col in inner_cols]
