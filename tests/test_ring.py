from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import ParseError, PolyRing, parse_polynomial


def P(ring, s):
    return parse_polynomial(ring, s)


def test_cancellation_in_sum():
    # over F_5, -x is written 4x
    r = PolyRing(["x", "y"], [1, 1], 5)
    f = r.add(P(r, "x + y"), P(r, "4*x"))
    assert f == P(r, "y")


def test_monomial_product():
    r = PolyRing(["x"], [1], 5)
    assert r.mul(P(r, "x"), P(r, "x")) == P(r, "x^2")


def test_difference_of_squares_product():
    # expanded by hand: (x+y)(x-y) = x^2 - y^2
    r = PolyRing(["x", "y"], [1, 1], 7)
    prod = r.mul(P(r, "x + y"), P(r, "x - y"))
    assert prod == P(r, "x^2 - y^2")


def test_leading_term_weighted_tiebreak():
    # weights (3,2): x^2 and y^3 both have degree 6; the reverse-lex
    # tiebreak prefers x^2 (last nonzero entry of (2,-3) is negative)
    r = PolyRing(["x", "y"], [3, 2], 7)
    m, c = r.leading_term(P(r, "x^2 + y^3"))
    assert m == (2, 0) and c == 1


def test_leading_term_single_variable():
    r = PolyRing(["x", "y"], [1, 1], 7)
    assert r.leading_term(P(r, "x")) == ((1, 0), 1)


def test_leading_term_higher_degree_wins():
    r = PolyRing(["x", "y"], [1, 1], 7)
    m, _ = r.leading_term(P(r, "y^5 + x"))
    assert m == (0, 5)


def test_leading_term_of_zero_raises():
    r = PolyRing(["x"], [1], 7)
    with pytest.raises(ZeroDivisionError):
        r.leading_term({})


def test_weighted_degree():
    r = PolyRing(["x", "y"], [1, 1], 7)
    assert r.mono_deg((2, 1)) == 3
    rw = PolyRing(["x", "y"], [3, 2], 7)
    assert rw.mono_deg((2, 0)) == 6
    assert rw.mono_deg((0, 3)) == 6


def test_lex_order():
    r = PolyRing(["x", "y"], [1, 1], 7, order="lex")
    m, _ = r.leading_term(P(r, "x + y^5"))
    assert m == (1, 0)


def test_parser_errors_carry_position():
    r = PolyRing(["x", "y"], [1, 1], 7)
    with pytest.raises(ParseError) as e:
        P(r, "x + q")
    assert "column 5" in str(e.value)
    with pytest.raises(ParseError):
        P(r, "x + ")
    with pytest.raises(ParseError):
        P(r, "x^y")


def test_unary_minus_and_parentheses():
    # expansions written out by hand, as exponent tuple -> coefficient
    r7 = PolyRing(["x", "y"], [1, 1], 7)
    assert P(r7, "(x + y)*(x - y)") == {(2, 0): 1, (0, 2): 6}
    assert P(r7, "-(x - y)^2 + 3*(x + y)*y") == {(2, 0): 6, (1, 1): 5,
                                                 (0, 2): 2}
    # over F_5, -3 is 2 and 7 is 2
    r5 = PolyRing(["x", "y"], [1, 1], 5)
    assert P(r5, "-3*x^2*y + 7") == {(2, 1): 2, (0, 0): 2}
    with pytest.raises(ParseError, match=r"expected '\)'"):
        P(r7, "(x + y")


def test_format_round_trip():
    r = PolyRing(["x", "y"], [3, 2], 7)
    for s in ("x^2 - y^3", "3*x*y + 2", "x", "0"):
        f = P(r, s)
        assert P(r, r.format_poly(f)) == f


@st.composite
def monomials(draw, nvars=2, max_exp=5):
    return tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(monomials(), monomials())
def test_degree_additivity(u, v):
    r = PolyRing(["x", "y"], [3, 2], 7)
    assert r.mono_deg(r.mono_mul(u, v)) == r.mono_deg(u) + r.mono_deg(v)


@st.composite
def homogeneous_polys(draw, ring, degree):
    monos = ring.monomials_of_degree(degree)
    f = {}
    for m in monos:
        c = draw(st.integers(0, ring.p - 1))
        if c:
            f[m] = c
    return f


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_product_of_homogeneous_is_homogeneous(data):
    r = PolyRing(["x", "y"], [3, 2], 7)
    d1 = data.draw(st.integers(2, 6))
    d2 = data.draw(st.integers(2, 6))
    f = data.draw(homogeneous_polys(r, d1))
    g = data.draw(homogeneous_polys(r, d2))
    prod = r.mul(f, g)
    deg = r.homogeneous_degree(prod)
    assert deg is not None
    if prod:
        assert deg == d1 + d2


def _residues(sums, p):
    """The nonzero residues mod p of exact integer sums."""
    return {k: c % p for k, c in sums.items() if c % p}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_add_sub_mul_match_exact_integer_sums(data):
    # the reference sums over Z in a Counter and reduces mod p once at the
    # end, so it shares no code with ring.isub, on which add, sub and mul
    # all run; nine monomials and p = 7 make overlaps and cancellations common
    r = PolyRing(["x", "y"], [3, 2], 7)
    polys = st.dictionaries(monomials(max_exp=2), st.integers(1, r.p - 1),
                            max_size=6)
    f, g = data.draw(polys), data.draw(polys)
    total, diff, prod = Counter(f), Counter(f), Counter()
    for m, c in g.items():
        total[m] += c
        diff[m] -= c
    for (m1, c1), (m2, c2) in product(f.items(), g.items()):
        prod[(m1[0] + m2[0], m1[1] + m2[1])] += c1 * c2
    assert r.add(f, g) == _residues(total, r.p)
    assert r.sub(f, g) == _residues(diff, r.p)
    assert r.mul(f, g) == _residues(prod, r.p)
    assert r.sub(f, f) == {}
