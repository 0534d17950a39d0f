import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import NotDomainError, PolyRing, define_ring, parse_polynomial
from hwprobe.groebner import reduce_poly
from hwprobe.quotient import principal_irreducible_scan


def test_threefold_quadric(threefold):
    assert threefold.dim == 3
    assert threefold.is_hypersurface
    assert threefold.domain


def test_cusp(cusp):
    assert cusp.dim == 1
    assert cusp.is_hypersurface
    # initial ideal is (x^2); standard monomials are {1, x} x k[y]
    assert cusp._initial_ideal == ((2, 0),)


def test_polynomial_ring_dim():
    r = define_ring(["x"], [1], 5, [])
    assert r.dim == 1
    assert not r.is_hypersurface


def test_gp_ring_is_artinian(gp_ring, gp_ring_t):
    assert gp_ring.dim == 0
    assert gp_ring_t.dim == 1


def test_inhomogeneous_generator_rejected():
    with pytest.raises(ValueError):
        define_ring(["x", "y"], [1, 1], 7, ["x^2 - y^3"])


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        define_ring(["x"], [1], 6, [])


def test_unit_ideal_rejected():
    with pytest.raises(ValueError):
        define_ring(["x"], [1], 5, ["1"])


def test_order_is_named():
    with pytest.raises(ValueError, match="unknown monomial order 'deglex'"):
        define_ring(["x"], [1], 5, [], order="deglex")
    lex = define_ring(["x", "y"], [1, 1], 5, [], order="lex").ambient
    grevlex = define_ring(["x", "y"], [1, 1], 5, []).ambient
    assert lex.order == "lex" and grevlex.order == "grevlex"
    assert lex != grevlex
    assert lex == PolyRing(["x", "y"], [1, 1], 5, order="lex")
    assert hash(lex) == hash(PolyRing(["x", "y"], [1, 1], 5, order="lex"))


def test_domain_scan_rejects_visible_factorization():
    with pytest.raises(NotDomainError):
        define_ring(["x", "y"], [1, 1], 7, ["x^2 - y^2"], domain=True)
    with pytest.raises(NotDomainError):
        define_ring(["x", "y"], [1, 1], 7, ["x*y"], domain=True)


def test_domain_scan_accepts_catalog_equations(cusp, threefold, surface,
                                               fermat_dim1, torus_dim1):
    # construction already ran the scan; re-run it directly
    for rq in (cusp, threefold, surface, fermat_dim1, torus_dim1):
        assert principal_irreducible_scan(rq.ambient, rq.gb[0]) is True


def test_quadric_rank_criterion():
    r = define_ring(["x", "y", "z", "w"], [1, 1, 1, 1], 101, [])
    amb = r.ambient
    # rank-4 and rank-3 quadrics are irreducible; rank <= 2 factor
    assert principal_irreducible_scan(
        amb, parse_polynomial(amb, "x*w - y*z")) is True
    assert principal_irreducible_scan(
        amb, parse_polynomial(amb, "x*z - y^2")) is True
    assert principal_irreducible_scan(
        amb, parse_polynomial(amb, "x*y")) is False


def test_normal_form_in_quotient(threefold):
    amb = threefold.ambient
    f = parse_polynomial(amb, "x*w")
    # grevlex leading term of xw - yz is yz, so yz reduces to xw
    g = parse_polynomial(amb, "y*z")
    assert threefold.nf(g) == threefold.nf(f)


NF_RINGS = {
    "grevlex-threefold": lambda: define_ring(
        ["x", "y", "z", "w"], [1, 1, 1, 1], 101, ["x*w - y*z"]),
    "lex-gasharov-peeva": lambda: define_ring(
        ["x1", "x2", "x3", "x4"], [1, 1, 1, 1], 5,
        ["x1^2", "x2^2", "x3^2", "x3*x4", "x4^2", "x1*x4 + x2*x4",
         "2*x1*x3 + x2*x3"], order="lex"),
    "weighted-cusp": lambda: define_ring(
        ["x", "y"], [3, 2], 7, ["x^2 - y^3"]),
}


@pytest.mark.parametrize("name", sorted(NF_RINGS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_nf_matches_reduce_poly(name, data):
    # reduce_poly prepares a basis from rq.gb on every call; nf, which uses
    # the basis the ring prepared once, must give the same remainder in the
    # same insertion order, since reports print polynomials in dict order.
    rq = NF_RINGS[name]()
    amb = rq.ambient
    degree = data.draw(st.integers(1, 8))
    monos = amb.monomials_of_degree(degree)
    if not monos:
        return
    terms = data.draw(st.lists(st.tuples(st.sampled_from(monos),
                                         st.integers(1, amb.p - 1)),
                               max_size=8))
    f = dict(terms)
    assert list(rq.nf(f).items()) == list(reduce_poly(amb, f, rq.gb).items())
