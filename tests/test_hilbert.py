from conftest import reference_std_monomials
from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import (
    PolyRing,
    define_ring,
    free_module,
    parse_polynomial,
    quotient_module,
)
from hwprobe.hilbert import (
    monomial_quotient_dim,
    std_monomials,
    tpoly_divide_exact,
    tpoly_shift,
    tpoly_sub,
)


def P(rq, s):
    return parse_polynomial(rq.ambient, s)


def test_polynomial_ring_hilbert_function():
    r = define_ring(["x", "y"], [1, 1], 7, [])
    f = free_module(r, (0,))
    assert f.hilbert_function(0, 5) == [1, 2, 3, 4, 5, 6]


def test_finite_length_quotient():
    r = define_ring(["x"], [1], 7, [])
    m = quotient_module(r, [P(r, "x^3")])
    assert m.length() == 3
    assert m.hilbert_function(0, 4) == [1, 1, 1, 0, 0]


def test_weighted_quotient_module_length(cusp):
    rx = quotient_module(cusp, [P(cusp, "x")])
    # R/(x) = k[y]/(y^3) with y of weight 2: dimensions sit in degrees 0,2,4
    assert rx.length() == 3
    assert rx.hilbert_function(0, 5) == [1, 0, 1, 0, 1, 0]


def test_infinite_length_reported_as_none(threefold):
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    assert m.length() is None


def test_monomial_dimension():
    assert monomial_quotient_dim(2, [(2, 0)]) == 1        # k[x,y]/(x^2)
    assert monomial_quotient_dim(4, [(0, 1, 1, 0)]) == 3  # (yz) in 4 vars
    assert monomial_quotient_dim(2, [(1, 0), (0, 1)]) == 0
    assert monomial_quotient_dim(2, []) == 2
    assert monomial_quotient_dim(2, [(0, 0)]) == -1       # unit ideal


def test_series_division_with_negative_exponents():
    # (t^-2 - t^1) / (1 - t) = t^-2 + t^-1 + 1
    q = tpoly_divide_exact({-2: 1, 1: -1}, 1)
    assert q == {-2: 1, -1: 1, 0: 1}
    assert tpoly_divide_exact({0: 1, 1: -1, 2: 1}, 1) is None


def test_series_coefficients_with_twists():
    r = define_ring(["x", "y"], [1, 1], 7, [])
    f = free_module(r, (-1, 2))  # generators in degrees -1 and 2
    hf = f.hilbert_function(-1, 3)
    assert hf == [1, 2, 3, 5, 7]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(-3, 6), st.integers(-4, 4), max_size=5),
       st.integers(1, 3))
def test_exact_division_inverts_multiplication(num, w):
    num = {e: c for e, c in num.items() if c}
    prod = tpoly_sub(num, tpoly_shift(num, w))  # num * (1 - t^w)
    assert tpoly_divide_exact(prod, w) == num


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_std_monomial_tables_match_the_reference(data):
    # random weighted Artinian monomial ideals: a pure power of each
    # variable, a few other monomials, sometimes the unit ideal
    nvars = data.draw(st.integers(1, 3))
    weights = data.draw(st.lists(st.integers(1, 3), min_size=nvars,
                                 max_size=nvars))
    amb = PolyRing([f"x{k}" for k in range(nvars)], weights, 7)
    powers = data.draw(st.lists(st.integers(1, 5), min_size=nvars,
                                max_size=nvars))
    gens = [tuple(e if i == k else 0 for i in range(nvars))
            for k, e in enumerate(powers)]
    gens += data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars),
                               max_size=4))
    assert std_monomials(amb, gens) == reference_std_monomials(amb, gens)
