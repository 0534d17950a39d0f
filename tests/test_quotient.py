import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gp_matrix_cols
from hwprobe import (
    NotDomainError,
    PolyRing,
    PresentedModule,
    define_ring,
    parse_polynomial,
)
from hwprobe.freemod import pack_mono, pack_vec, unpack_term, vec_mul_term
from hwprobe.groebner import reduce_poly, vec_nf_ideal
from hwprobe.homalg import _module_blocks
from hwprobe.modules import ring_blocks
from hwprobe.quotient import principal_irreducible_scan
from hwprobe.ring import DEGREE_LIMIT


def frame_mul_nf(blocks, v, m):
    """``blocks.mul_nf`` on v and x^m, packed in and unpacked out."""
    return {unpack_term(t, blocks.ring.ambient.nvars): c
            for t, c in blocks.mul_nf(pack_vec(v), pack_mono(m)).items()}


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


def test_ring_without_variables_rejected():
    # with no variable, a packed term of the strand frame and an identity
    # coordinate would be the same int
    with pytest.raises(ValueError, match="at least one variable"):
        define_ring([], [], 5, [])


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


AXES = (["x", "y", "z"], [1, 1, 1], 101, ["x*y", "x*z", "y*z"])


def test_domain_refuted_by_a_monomial_without_its_variables():
    # a prime ideal that holds a monomial holds one of its variables; the
    # ideal of the three coordinate axes holds x*y, x*z, y*z and no variable
    with pytest.raises(NotDomainError, match="monomial .* none of its "
                                             "variables"):
        define_ring(*AXES, domain=True)
    assert not define_ring(*AXES).domain


def test_domain_kept_when_a_monomial_is_its_own_variable():
    # k[x,y,z]/(x, y^2 - z^3) is the cusp: the monomial x of its basis is a
    # variable that lies in the ideal, so nothing is refuted
    r = define_ring(["x", "y", "z"], [1, 3, 2], 101, ["x", "y^2 - z^3"],
                    domain=True)
    assert r.domain and r.dim == 1
    assert any(len(h) == 1 for h in r.gb)


def test_domain_scan_accepts_catalog_equations(cusp, threefold, surface,
                                               fermat_dim1, torus_dim1):
    # construction already ran the scan; re-run it directly
    for rq in (cusp, threefold, surface, fermat_dim1, torus_dim1):
        assert principal_irreducible_scan(rq.ambient, rq.gb[0]) is True


def test_divisor_scan_decides_cubics_in_three_variables():
    # neither the quadric rank nor the two-variable binomial rule applies, so
    # both answers come from the budgeted scan over linear divisors
    r5 = PolyRing(["x", "y", "z"], [1, 1, 1], 5)
    assert principal_irreducible_scan(
        r5, parse_polynomial(r5, "x^2*y + y^2*z + z^2*x")) is True
    # x^3 + y^3 + z^3 = (x + y + z)^3 in characteristic 3
    r3 = PolyRing(["x", "y", "z"], [1, 1, 1], 3)
    assert principal_irreducible_scan(
        r3, parse_polynomial(r3, "x^3 + y^3 + z^3")) is False
    with pytest.raises(NotDomainError, match="x\\^3 \\+ y\\^3 \\+ z\\^3"):
        define_ring(["x", "y", "z"], [1, 1, 1], 3, ["x^3 + y^3 + z^3"],
                    domain=True)


def test_divisor_scan_finds_planted_factors():
    r = PolyRing(["x", "y", "z"], [1, 1, 1], 3)
    rng = random.Random(7)
    for _ in range(5):
        linear = {m: rng.randrange(1, 3) for m in r.monomials_of_degree(1)}
        quadric = {m: rng.randrange(3) for m in r.monomials_of_degree(2)}
        quadric = {m: c for m, c in quadric.items() if c} or {(2, 0, 0): 1}
        assert principal_irreducible_scan(r, r.mul(linear, quadric)) is False


@pytest.mark.parametrize("text, verdict", [
    # smooth plane curves: irreducible, decided by the 57 linear candidates
    # (the cubic) and the 57 + 19,608 candidates of degree at most 2 (the
    # quartic, whose degree-3 candidates are past the budget)
    ("x^3 + y^3 + z^3", True),
    ("x^4 + y^4 + 3*z^4", True),
    # a product of two quadrics: the scan reaches degree deg/2 itself
    ("(x^2 + y^2 + z^2)*(x^2 + 2*y^2 + 3*z^2)", False),
])
def test_divisor_scan_stops_at_half_the_degree(text, verdict):
    sympy = pytest.importorskip("sympy")
    r = PolyRing(["x", "y", "z"], [1, 1, 1], 7)
    f = parse_polynomial(r, text)
    assert principal_irreducible_scan(r, f) is verdict
    # sympy cannot factor in several variables over F_7, so the verdict is
    # checked another way: a plane curve with no singular point is
    # irreducible (two components would meet), and f, f_x, f_y, f_z have
    # only the origin as common zero iff their ideal is zero-dimensional
    x, y, z = sympy.symbols("x y z")
    g = sympy.sympify(text.replace("^", "**"))
    jac = sympy.groebner([g] + [sympy.diff(g, v) for v in (x, y, z)],
                         x, y, z, modulus=7, order="grevlex")
    assert jac.is_zero_dimensional is verdict


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
    # the basis the ring prepared once, must give the same remainder
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
    assert rq.nf(f) == reduce_poly(amb, f, rq.gb)


def _draw_vector(data, rq, ncomp):
    """A vector whose components have random degrees, each plus a multiple
    of a Groebner basis element, so that rows cancel mod p; its items come
    in a random order, so components interleave."""
    amb = rq.ambient
    p = amb.p
    v = {}
    for c in range(ncomp):
        degree = data.draw(st.integers(0, 6))
        monos = amb.monomials_of_degree(degree)
        if not monos:
            continue
        f = dict(data.draw(st.lists(st.tuples(st.sampled_from(monos),
                                              st.integers(1, p - 1)),
                                    max_size=5)))
        g = data.draw(st.sampled_from(rq.gb))
        us = amb.monomials_of_degree(degree - amb.homogeneous_degree(g))
        if us:
            f = amb.add(f, amb.mul(g, {data.draw(st.sampled_from(us)):
                                       data.draw(st.integers(1, p - 1))}))
        v.update(((c, m), coef) for m, coef in f.items())
    return dict(data.draw(st.permutations(list(v.items()))))


def _whole_division(rq, v):
    """Componentwise normal form by dividing each whole component by the
    ring's basis."""
    comps = {}
    for (c, m), coef in v.items():
        comps.setdefault(c, {})[(0, m)] = coef
    return {(c, m): coef for c, f in comps.items()
            for (_, m), coef in rq._ideal_basis.normal_form(f).items()}


def _copywise_division(n, v):
    """v reduced copy by copy by the relations of the module n."""
    g_n = n.ngens
    copies = {}
    for (j, m), coef in v.items():
        copies.setdefault(j // g_n, {})[(j % g_n, m)] = coef
    return {(b * g_n + k, m): coef for b, w in copies.items()
            for (k, m), coef in n.rel_gb().normal_form(w).items()}


@pytest.mark.parametrize("name", sorted(NF_RINGS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_vec_nf_ideal_matches_whole_division(name, data):
    # the table rows summed per component give the remainder of dividing
    # the whole component
    rq = NF_RINGS[name]()
    v = _draw_vector(data, rq, 3)
    assert vec_nf_ideal(rq, v) == _whole_division(rq, v)


@pytest.mark.parametrize("name", sorted(NF_RINGS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mul_nf_matches_nf_of_product(name, data):
    rq = NF_RINGS[name]()
    amb = rq.ambient
    p = amb.p
    v = _draw_vector(data, rq, 3)
    m = data.draw(st.sampled_from([u for d in range(4)
                                   for u in amb.monomials_of_degree(d)]))
    expected = _whole_division(rq, vec_mul_term(v, m, 1, p))
    assert vec_nf_ideal(rq, v, m) == expected
    if rq.dim == 0:
        assert frame_mul_nf(ring_blocks(rq), v, m) == expected
        # two copies of GP's period-four module N
        n = PresentedModule(rq, (0, 0), gp_matrix_cols(rq, 1))
        w = _draw_vector(data, rq, 2 * n.ngens)
        assert frame_mul_nf(_module_blocks(n), w, m) == \
            _copywise_division(n, vec_mul_term(w, m, 1, p))


def test_packing_bound_survives_the_table():
    # a row past the bound fails in the division, and memoized keeps no
    # failed row, so asking again fails again
    rq = NF_RINGS["weighted-cusp"]()
    past = (DEGREE_LIMIT // 3 + 1, 0)
    assert rq.ambient.mono_deg(past) >= DEGREE_LIMIT
    for _ in range(2):
        with pytest.raises(ValueError, match="packing bound"):
            rq.nf({past: 1})
        with pytest.raises(ValueError, match="packing bound"):
            vec_nf_ideal(rq, {(1, past): 1})
        with pytest.raises(ValueError, match="packing bound"):
            vec_nf_ideal(rq, {(0, (1, 0)): 1}, (DEGREE_LIMIT // 3, 0))
    assert rq.nf({(3, 0): 1}) == {(1, 3): 1}


def _draw_module(data, rq):
    """A presented module on 1-3 generators of twists 0..2, with 1-3
    homogeneous relation columns, each of degree 1..3 over the lowest twist
    and with no unit entry, so that no generator cancels."""
    amb = rq.ambient
    twists = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    cols = []
    for _ in range(data.draw(st.integers(1, 3))):
        d = min(twists) + data.draw(st.integers(1, 3))
        col = {}
        for j, a in enumerate(twists):
            if d > a:
                monos = amb.monomials_of_degree(d - a)
                for m in data.draw(st.lists(st.sampled_from(monos),
                                            min_size=1, max_size=2)):
                    col[(j, m)] = data.draw(st.integers(1, amb.p - 1))
        cols.append(col)
    return PresentedModule(rq, twists, cols)


ARTINIAN = sorted(name for name, make in NF_RINGS.items() if make().dim == 0)


@pytest.mark.parametrize("name", ARTINIAN)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_module_table_matches_copywise_division(name, data):
    # the rows of a module's term_nf table, summed per copy, give the
    # remainder of dividing each whole copy by the relations
    rq = NF_RINGS[name]()
    amb = rq.ambient
    n = _draw_module(data, rq)
    ncomp = data.draw(st.integers(1, 3)) * n.ngens
    if data.draw(st.booleans()):
        w = _draw_vector(data, rq, ncomp)
    else:
        # one degree and few monomials, so that rows of different generators
        # of one copy meet on a monomial
        monos = amb.monomials_of_degree(data.draw(st.integers(0, 2)))[:3]
        terms = data.draw(st.lists(st.tuples(st.integers(0, ncomp - 1),
                                             st.sampled_from(monos)),
                                   min_size=1, max_size=6, unique=True))
        w = {t: data.draw(st.integers(1, amb.p - 1)) for t in terms}
    m = data.draw(st.sampled_from([u for d in range(4)
                                   for u in amb.monomials_of_degree(d)]))
    assert frame_mul_nf(_module_blocks(n), w, m) == \
        _copywise_division(n, vec_mul_term(w, m, 1, amb.p))
