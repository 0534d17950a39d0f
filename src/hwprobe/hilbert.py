"""Hilbert series, graded dimensions and lengths via initial modules.

The Hilbert function of F/U equals that of F/in(U) (Macaulay), so all the
counting here happens on monomial data: per-component monomial ideals
extracted from a Groebner basis.  Series are represented by their numerator
polynomials N(t) in Z[t] with HS = N(t) / prod_i (1 - t^{w_i}); numerators
are dicts mapping exponents to integer coefficients.
"""

from .ring import memoized


# -- Z[t] arithmetic ---------------------------------------------------------

def tpoly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def tpoly_sub(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) - c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def tpoly_shift(a, s):
    return {e + s: c for e, c in a.items()}


def tpoly_divide_exact(a, w):
    """Quotient a / (1 - t^w), or None when the division is inexact.

    Exponents may be negative (twisted free modules); the quotient of a
    polynomial series is supported in degrees >= min(a).
    """
    if not a:
        return {}
    q = {}
    lo, hi = min(a), max(a)
    for e in range(lo, hi + 1):
        c = a.get(e, 0) + q.get(e - w, 0)
        if c:
            q[e] = c
    # verify: q * (1 - t^w) == a
    check = tpoly_sub(q, tpoly_shift(q, w))
    return q if check == a else None


# -- monomial ideal combinatorics -------------------------------------------

def minimalize_monomials(gens):
    """Drop monomial generators divisible by another generator."""
    out = []
    for m in sorted(set(gens), key=sum):
        if not any(all(x <= y for x, y in zip(g, m)) for g in out):
            out.append(m)
    return out


def monomial_quotient_dim(nvars, gens):
    """Krull dimension of S/(monomial ideal).

    The dimension is the size of the largest variable subset V with no
    generator supported inside V.
    """
    gens = minimalize_monomials(gens)
    if any(sum(m) == 0 for m in gens):
        return -1  # unit ideal; empty quotient
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gens]
    best = 0
    for mask in range(1 << nvars):
        sub = frozenset(i for i in range(nvars) if mask >> i & 1)
        if any(s <= sub for s in supports):
            continue
        best = max(best, len(sub))
    return best


def hilbert_numerator(ring, gens):
    """Numerator of the Hilbert series of S/(monomial ideal).

    Uses the exact sequence 0 -> S/(J:m)(-deg m) -> S/J -> S/(J+m) -> 0 with
    m a generator, recursing on simpler ideals.
    """
    return _numerator(ring, tuple(sorted(minimalize_monomials(gens))))


@memoized
def _numerator(ring, gens):
    """``hilbert_numerator`` of sorted minimal generators, memoized on S."""
    if not gens:
        return {0: 1}
    if any(sum(m) == 0 for m in gens):
        return {}
    # split off the last generator m: N(J) = N(J') - t^deg(m) N(J':m)
    m = gens[-1]
    rest = gens[:-1]
    colon = minimalize_monomials(tuple(max(x - y, 0) for x, y in zip(g, m))
                                 for g in rest)
    return tpoly_sub(_numerator(ring, rest),
                     tpoly_shift(_numerator(ring, tuple(sorted(colon))),
                                 ring.mono_deg(m)))


def module_numerator(ring, twists, comp_gens):
    """Numerator for F/in(U): sum over components of t^twist * N(component)."""
    out = {}
    for j, a in enumerate(twists):
        nj = hilbert_numerator(ring, comp_gens.get(j, ()))
        out = tpoly_add(out, tpoly_shift(nj, a))
    return out


def series_coefficients(ring, numer, lo, hi):
    """Coefficients of numer / prod(1 - t^w) in degrees lo..hi."""
    if hi < lo:
        return []
    base = min([0, lo] + list(numer)) if numer else min(0, lo)
    coeffs = [0] * (hi - base + 1)
    for e, c in numer.items():
        if e <= hi:
            coeffs[e - base] += c
    for w in ring.weights:
        # multiply by 1/(1 - t^w): prefix recurrence
        for e in range(w, hi - base + 1):
            coeffs[e] += coeffs[e - w]
    return coeffs[lo - base:hi - base + 1]


def series_total_if_finite(ring, numer):
    """Sum of all series coefficients when the series is a polynomial.

    Returns None when some (1 - t^w) fails to divide the numerator, i.e. the
    module has positive dimension.
    """
    q = dict(numer)
    for w in ring.weights:
        q = tpoly_divide_exact(q, w)
        if q is None:
            return None
    total = sum(q.values())
    if total < 0:
        raise ArithmeticError("negative length; numerator was not a Hilbert numerator")
    return total


def std_monomials_of_degree(ring, gens, d):
    """Monomials of weighted degree d outside the monomial ideal."""
    gens = minimalize_monomials(gens)
    out = []
    for m in ring.monomials_of_degree(d):
        if not any(all(x <= y for x, y in zip(g, m)) for g in gens):
            out.append(m)
    return out


def std_monomials(ring, gens):
    """Standard monomials of an Artinian monomial ideal, listed by degree.

    A divisor of a standard monomial is standard, so degree d is grown from
    x * (the standard monomials of degree d - w(x)), sorted as
    ``monomials_of_degree`` lists them.  Once max(w) degrees in a row are
    empty, every later one is.  The ideal holds a pure power x^e of each
    variable, which bounds the degrees by sum (e - 1) * w(x).  The table
    runs from degree 0 to the top degree with a standard monomial; it is
    empty when the ideal is the unit ideal.
    """
    gens = minimalize_monomials(gens)
    bound = 0
    for k, w in enumerate(ring.weights):
        e = min(g[k] for g in gens if sum(g) == g[k])
        bound += (e - 1) * w
    top = max(ring.weights)
    table = []
    for d in range(bound + 1):
        if d == 0:
            grown = {(0,) * ring.nvars}
        else:
            grown = {m[:k] + (m[k] + 1,) + m[k + 1:]
                     for k, w in enumerate(ring.weights) if w <= d
                     for m in table[d - w]}
        table.append(sorted(m for m in grown if not any(
            all(x <= y for x, y in zip(g, m)) for g in gens)))
        if len(table) >= top and not any(table[-top:]):
            break
    while table and not table[-1]:
        table.pop()
    return table
