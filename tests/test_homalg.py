import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hwprobe import (
    HypothesisError,
    ISO,
    GradedMap,
    PresentedModule,
    biduality_map,
    define_ring,
    depth,
    dual,
    ext,
    free_module,
    grade,
    hom,
    ideal_module,
    is_isomorphic,
    parse_polynomial,
    quotient_module,
    residue_field_module,
    syzygy_module,
    tensor,
    tor,
    tor_length,
    torsion_length,
    torsion_submodule,
    transpose,
)
from hwprobe import hilbert, homalg, modules
from hwprobe.freemod import vec_degree
from hwprobe.groebner import composes_to_zero
from hwprobe.homalg import (
    DualComplex,
    KoszulComplex,
    ext_is_zero,
    length_at,
    module_at,
)
from hwprobe.resolution import resolution_of


def P(rq, s):
    return parse_polynomial(rq.ambient, s)


# -- Hom and duals -----------------------------------------------------------

def test_hom_from_ring_is_identity(cusp, cusp_m):
    h = hom(free_module(cusp, (0,)), cusp_m)
    assert is_isomorphic(h, cusp_m).verdict == ISO


def test_dual_of_finite_length_module_vanishes(cusp):
    assert dual(residue_field_module(cusp)).is_zero()


def test_dual_of_torsion_module_vanishes(threefold):
    t = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    assert dual(t).is_zero()


def test_ideal_dual_rank_bookkeeping(threefold):
    # the height-one ideal (x, z) over the quadric is a reflexive rank-one
    # maximal Cohen-Macaulay module; its dual has rank one and biduality
    # is an isomorphism
    i = ideal_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    assert depth(i) == 3
    d = dual(i)
    assert d.rank() == 1 == i.rank()
    eta = biduality_map(i)
    assert eta.check()
    assert eta.is_injective() and eta.is_surjective()


def hom_generator_maps(m, n):
    """Hom(M, N) = Ext^0 with each generator vector of ``module_at`` read as
    a map M -> N: block j of the vector is the image of generator j."""
    h, gens = module_at(DualComplex(resolution_of(m, 1)), n, 0)
    assert h.ngens == len(gens)
    g_n = n.ngens
    maps = []
    for v, shift in zip(gens, h.twists):
        cols = [{(c % g_n, mm): coef for (c, mm), coef in v.items()
                 if c // g_n == j} for j in range(m.ngens)]
        maps.append(GradedMap(m, n, cols, shift=shift))
    return h, maps


def test_hom_generators_are_honest_maps(cusp, cusp_m, gp_ring):
    from conftest import gp_matrix_cols
    gp_n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    k = residue_field_module(gp_ring)
    # the cycle-data route (dim 1) and the strand route (dim 0)
    for m, n in ((cusp_m, cusp_m), (gp_n, gp_n), (gp_n, k), (k, gp_n)):
        h, maps = hom_generator_maps(m, n)
        assert maps
        for g in maps:
            assert g.check()
            assert not g.is_zero()


@pytest.mark.parametrize("ideal", [["x"], ["x", "y"], ["x*y"]])
def test_biduality_is_an_isomorphism_over_artinian_gorenstein(ideal):
    # over the Gorenstein ring k[x,y]/(x^2, y^2) every module is reflexive
    r = define_ring(["x", "y"], [1, 1], 7, ["x^2", "y^2"])
    m = quotient_module(r, [P(r, g) for g in ideal])
    eta = biduality_map(m)
    assert eta.check()
    assert eta.is_injective() and eta.is_surjective()


# -- transpose ---------------------------------------------------------------

def test_transpose_of_free_is_zero(cusp):
    assert transpose(free_module(cusp, (0, 1))).is_zero()


def test_transpose_of_residue_field_over_line():
    r = define_ring(["x"], [1], 7, [])
    k = quotient_module(r, [P(r, "x")])
    t = transpose(k)
    assert t.twists == (-1,)
    assert t.hilbert_function(-1, 0) == [1, 0]


def test_transpose_detects_nonfreeness(threefold, cusp, cusp_m):
    from hwprobe.homalg import tor_is_zero
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    # Tor_1(M, Tr M) is supported on a surface here: nonzero, infinite length
    assert not tor_is_zero(m, transpose(m), 1)
    assert tor_length(m, transpose(m), 1) is None
    assert tor_length(cusp_m, transpose(cusp_m), 1) > 0
    f = free_module(cusp, (0, 2))
    assert transpose(f).is_zero()


def test_dual_is_second_syzygy_of_transpose(cusp, cusp_m):
    md, _ = dual(cusp_m).trim_free_summands()
    om2, = (syzygy_module(transpose(cusp_m), 2, trim=True),)
    assert is_isomorphic(md, om2, allow_twist=True).verdict == ISO


# -- Tor ---------------------------------------------------------------------

def test_tor0_is_tensor(threefold_mn):
    m, n = threefold_mn
    t0 = tor(m, n, 0)
    assert is_isomorphic(t0, tensor(m, n)).verdict == ISO


def test_tor_vanishing_pattern_on_quadric(threefold_mn):
    m, n = threefold_mn
    assert tor_length(m, n, 2) == 0
    assert tor_length(m, n, 3) == 1
    assert [tor_length(m, n, i) for i in range(1, 7)] == [1, 0, 1, 0, 1, 0]


def test_tor_against_free_vanishes(cusp, cusp_m):
    r1 = free_module(cusp, (0,))
    assert all(tor_length(cusp_m, r1, i) == 0 for i in (1, 2, 3))


def test_tor_koszul_length():
    r = define_ring(["x"], [1], 7, [])
    k = quotient_module(r, [P(r, "x")])
    assert tor_length(k, k, 1) == 1


def test_negative_indices_are_rejected_everywhere():
    # lengths and vanishing tests answered 0 and True for i < 0
    r = define_ring(["x", "y"], [1, 1], 7, ["x^2", "y^2"])
    k = residue_field_module(r)
    from hwprobe.homalg import tor_is_zero
    for fn in (tor, tor_length, tor_is_zero, ext, ext_is_zero):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(k, k, -1)


def test_tor_balance(threefold_mn):
    m, n = threefold_mn
    for i in (1, 2, 3, 4):
        assert tor_length(m, n, i) == tor_length(n, m, i)


def test_lengths_read_one_numerator_per_differential(monkeypatch):
    # in positive dimension the lengths at i and at i + 1 share the Hilbert
    # numerator of d_{i+1}: Tor_1..6 reads d_1..d_7, 7 numerators, not 12
    ring = define_ring(["x", "y", "z", "w"], [1, 1, 1, 1], 101,
                       ["x*w - y*z"], domain=True)
    m = quotient_module(ring, [P(ring, "x"), P(ring, "z")])
    n = quotient_module(ring, [P(ring, "x"), P(ring, "y")])
    calls = []
    real = homalg.submodule_numerator

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(homalg, "submodule_numerator", counting)
    assert [tor_length(m, n, i) for i in range(1, 7)] == [1, 0, 1, 0, 1, 0]
    assert len(calls) == 7
    # the dual of the same complex keeps memo entries of its own on N: its
    # vanishing, read after Tor, agrees with the Ext modules themselves
    assert [ext_is_zero(m, n, i) for i in range(4)] == \
        [ext(m, n, i).is_zero() for i in range(4)]


# -- Ext ---------------------------------------------------------------------

def test_ext_from_free_vanishes(cusp, cusp_m):
    r1 = free_module(cusp, (0,))
    assert ext(r1, cusp_m, 1).is_zero()
    assert ext(r1, cusp_m, 2).is_zero()


def test_ext_self_extensions_of_maximal_ideal(cusp, cusp_m):
    assert not ext_is_zero(cusp_m, cusp_m, 1)


def test_mcm_module_is_totally_reflexive(cusp, cusp_m):
    r1 = free_module(cusp, (0,))
    assert ext_is_zero(cusp_m, r1, 1)
    assert ext_is_zero(cusp_m, r1, 2)


# -- the dual complex ----------------------------------------------------------

def dual_complex_cases(cusp, cusp_m, gp_ring):
    """(complex, indices of its dual to check): a resolution, whose dual is
    defined up to index 1, a Koszul complex and a complete resolution of
    period four over GP, and the matrix-factorization one over the cusp."""
    from conftest import gp_matrix_cols
    from hwprobe import complete_resolution
    gp_n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    return [(resolution_of(cusp_m, 4), range(-4, 2)),
            (resolution_of(gp_n, 4), range(-4, 2)),
            (KoszulComplex(cusp), range(-3, 3)),
            (KoszulComplex(gp_ring), range(-5, 3)),
            (complete_resolution(gp_n, 4, window=2), range(-5, 6)),
            (complete_resolution(cusp_m), range(-3, 4))]


def test_dual_of_the_dual_is_the_complex(cusp, cusp_m, gp_ring):
    for cx, indices in dual_complex_cases(cusp, cusp_m, gp_ring):
        twice = DualComplex(DualComplex(cx))
        for j in indices:
            assert twice.twists_at(j) == cx.twists_at(j)
            assert twice.twists_at(-j) == cx.twists_at(-j)
            if j <= 1:
                assert twice.differential(1 - j) == cx.differential(1 - j)


def test_dual_complex_is_a_graded_complex(cusp, cusp_m, gp_ring):
    # d o d = 0, and each column of d_j has the degree of its generator
    for cx, indices in dual_complex_cases(cusp, cusp_m, gp_ring):
        d = DualComplex(cx)
        amb = cx.ring.ambient
        for j in indices:
            assert d.twists_at(j) == tuple(-t for t in cx.twists_at(-j))
            if j < max(indices):
                assert composes_to_zero(cx.ring, d.differential(j),
                                        d.differential(j + 1))
            cols = d.differential(j)
            assert len(cols) == len(d.twists_at(j))
            assert all(vec_degree(amb, c, d.twists_at(j - 1)) == t
                       for c, t in zip(cols, d.twists_at(j)) if c)


def test_ext_through_a_fresh_dual_reads_the_memo(gp_ring, monkeypatch):
    # duals of one complex are equal, so a second Ext through a new wrapper
    # finds every rank (dim 0) and numerator (dim 1) the first one computed
    from conftest import gp_matrix_cols
    calls = []
    rank, numerator = modules.Blocks.rank, homalg.submodule_numerator
    monkeypatch.setattr(modules.Blocks, "rank", lambda *a: calls.append(a)
                        or rank(*a))
    monkeypatch.setattr(homalg, "submodule_numerator",
                        lambda *a: calls.append(a) or numerator(*a))
    cusp = define_ring(["x", "y"], [3, 2], 7, ["x^2 - y^3"], domain=True)
    cusp_m = ideal_module(cusp, [P(cusp, "x"), P(cusp, "y")])
    gp_n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    for m, n in ((gp_n, residue_field_module(gp_ring)), (cusp_m, cusp_m)):
        res = resolution_of(m, 3)
        assert DualComplex(res) == DualComplex(res) != DualComplex(
            KoszulComplex(m.ring))
        assert hash(DualComplex(res)) == hash(DualComplex(res))
        first = [ext_is_zero(m, n, i) for i in range(3)]
        made = len(calls)
        assert made > 0
        assert [ext_is_zero(m, n, i) for i in range(3)] == first
        assert len(calls) == made


# -- depth and grade ---------------------------------------------------------

def test_depth_examples(cusp, threefold):
    r2 = define_ring(["x", "y"], [1, 1], 7, [])
    assert depth(free_module(r2, (0,))) == 2
    assert depth(residue_field_module(r2)) == 0
    assert depth(free_module(threefold, (0,))) == 3
    with pytest.raises(HypothesisError):
        depth(quotient_module(cusp, [P(cusp, "1")]))


def test_koszul_complex_is_zero_below_degree_zero(cusp, cusp_m, gp_ring):
    # H_0(K (x) N) = N/mN has one dimension per generator, and
    # H^0(Hom(K, N)) is the socle Hom(k, N); K_{-1} = 0 gives zero at -1
    from conftest import gp_matrix_cols
    gp_n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    cases = [(cusp_m, 2, 0), (residue_field_module(cusp), 1, 1),
             (free_module(cusp, (0,)), 1, 0), (gp_n, 2, 6),
             (residue_field_module(gp_ring), 1, 1),
             (free_module(gp_ring, (0,)), 1, 3)]
    for n, top, socle in cases:
        koszul = KoszulComplex(n.ring)
        assert koszul.twists_at(-1) == () and koszul.differential(-1) == []
        assert koszul.differential(0) == [{}]
        assert length_at(koszul, n, 0) == n.ngens == top
        assert length_at(DualComplex(koszul), n, 0) == socle == \
            ext(residue_field_module(n.ring), n, 0).length()
        assert length_at(koszul, n, -1) == 0
        assert length_at(DualComplex(koszul), n, 1) == 0


def test_grade_examples(cusp, cusp_m, threefold):
    r2 = define_ring(["x", "y"], [1, 1], 7, [])
    assert grade(residue_field_module(r2)) == 2
    assert grade(cusp_m) == 0
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    assert grade(m) == 1 == threefold.dim - m.krull_dim()


# -- torsion -----------------------------------------------------------------

def test_torsion_of_free_is_zero(cusp):
    t, emb = torsion_submodule(free_module(cusp, (0, 1)), "saturation")
    assert t.is_zero()


def test_torsion_of_killed_module_is_everything(cusp):
    rx = quotient_module(cusp, [P(cusp, "x")])
    t, emb = torsion_submodule(rx, "saturation")
    assert t.length() == 3
    assert emb.check()


def test_torsion_methods_agree_in_dim_one(cusp, cusp_m):
    prod = tensor(cusp_m, dual(cusp_m))
    t1, _ = torsion_submodule(prod, "saturation")
    t2, _ = torsion_submodule(prod, "biduality")
    assert t1.length() == t2.length() == 2
    assert t1.length() > 0


def test_torsion_saturates_by_a_variable_nonzero_in_r():
    # w is zero in R, so saturating by it alone would be a colon by the
    # zero ideal; x is the first variable that is nonzero in R
    r = define_ring(["w", "x", "y"], [1, 3, 2], 7, ["w", "x^2 - y^3"],
                    domain=True)
    m = ideal_module(r, [P(r, "x"), P(r, "y")])
    prod = tensor(m, dual(m))
    t1, _ = torsion_submodule(prod, "saturation")
    t2, _ = torsion_submodule(prod, "biduality")
    assert t1.length() == t2.length() == 2
    assert three_torsion_lengths(prod) == (2, 2, 2)


def three_torsion_lengths(n):
    """len T(N) from the saturation module, by the powers of x and as the
    kernel length of the biduality map: three paths that share nothing."""
    t, _ = torsion_submodule(n, "saturation")
    return t.length(), torsion_length(n), biduality_map(n).kernel_length()


@pytest.mark.parametrize("ring_name", ["cusp", "fermat_dim1", "torus_dim1"])
def test_torsion_paths_agree_on_the_maximal_ideal(ring_name, request):
    # 2 is the length in the catalog goldens of these three rings
    r = request.getfixturevalue(ring_name)
    m = ideal_module(r, [P(r, "x"), P(r, "y")])
    assert three_torsion_lengths(tensor(m, dual(m))) == (2, 2, 2)


@pytest.mark.parametrize("gens", [("x", "y"), ("x", "z"), ("y", "z")])
def test_torsion_paths_agree_on_two_variable_ideals(t345, gens):
    m = ideal_module(t345, [P(t345, v) for v in gens])
    lengths = three_torsion_lengths(tensor(m, dual(m)))
    assert lengths[0] > 0 and len(set(lengths)) == 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_torsion_paths_agree_on_drawn_ideals(cusp, t345, data):
    # I = (f, g) for homogeneous f, g of distinct degrees is torsion-free,
    # and I (x) I* has torsion unless I is principal
    r = data.draw(st.sampled_from([cusp, t345]))
    amb = r.ambient
    a = data.draw(st.integers(3, 8))
    gens = []
    for d in (a, a + data.draw(st.integers(1, 4))):
        draw = random.Random(data.draw(st.integers(0, 2 ** 32)))
        gens.append({m: draw.randrange(1, amb.p)
                     for m in amb.monomials_of_degree(d)})
    m = ideal_module(r, gens)
    assume(not m.is_zero())
    assert len(set(three_torsion_lengths(tensor(m, dual(m))))) == 1


def test_x_power_path_on_torsion_modules(cusp):
    # over R/(x^2) the whole module is torsion, of length 6, but 0 :_M x is
    # (x)/(x^2), of length 3: the lengths grow at k = 2 and agree at k = 3
    for text, length in (("x", 3), ("x^2", 6), ("y^2", 4)):
        q = quotient_module(cusp, [P(cusp, text)])
        assert three_torsion_lengths(q) == (length,) * 3
    assert torsion_length(free_module(cusp, (0, 1))) == 0
    assert torsion_length(PresentedModule(cusp, (), ())) == 0


def test_x_power_path_raises_past_its_bound(cusp, monkeypatch):
    rx2 = quotient_module(cusp, [P(cusp, "x^2")])
    for limit in (1, 2):
        monkeypatch.setattr(homalg, "_X_POWER_LIMIT", limit)
        with pytest.raises(ArithmeticError, match="did not stabilize"):
            torsion_length(rx2)
    monkeypatch.setattr(homalg, "_X_POWER_LIMIT", 3)
    assert torsion_length(rx2) == 6


def test_x_power_path_never_returns_an_infinite_length(cusp, cusp_m,
                                                       monkeypatch):
    # two infinite lengths in a row must not pass for stabilization
    monkeypatch.setattr(hilbert, "series_total_if_finite", lambda *a: None)
    with pytest.raises(ArithmeticError, match="infinite length"):
        torsion_length(tensor(cusp_m, dual(cusp_m)))


def test_x_power_path_needs_a_one_dimensional_domain(threefold, gp_module_t):
    with pytest.raises(HypothesisError):
        torsion_length(gp_module_t)
    with pytest.raises(HypothesisError):
        torsion_length(quotient_module(threefold, [P(threefold, "x")]))


def test_kernel_length_reads_the_kernel_module(cusp, t345, surface,
                                               surface_mcm):
    # finite kernels of biduality maps in dimensions one and two, and the
    # infinite one of R/(x) -> its double dual, which is 0
    cases = [tensor(m, dual(m)) for m in (
        ideal_module(cusp, [P(cusp, "x"), P(cusp, "y")]),
        ideal_module(t345, [P(t345, "x"), P(t345, "z")]),
        surface_mcm)]
    cases += [quotient_module(cusp, [P(cusp, "x^2")]),
              quotient_module(surface, [P(surface, "x")])]
    got = []
    for n in cases:
        eta = biduality_map(n)
        got.append(eta.kernel_length())
        assert got[-1] == eta.kernel()[0].length()
    assert got[0] == 2 and got[-1] is None


def test_torsion_needs_domain(gp_ring_t, gp_module_t):
    with pytest.raises(HypothesisError):
        torsion_submodule(gp_module_t)


def test_torsion_embedding_is_injective(cusp, cusp_m):
    prod = tensor(cusp_m, dual(cusp_m))
    t, emb = torsion_submodule(prod, "saturation")
    assert emb.check()
    assert emb.is_injective()


# -- graded maps -------------------------------------------------------------

def test_graded_map_kernel_and_cokernel(cusp):
    r1 = free_module(cusp, (0,))
    rx = quotient_module(cusp, [P(cusp, "x")])
    proj = GradedMap(r1, rx, [{(0, cusp.ambient.zero_mono): 1}])
    assert proj.check()
    assert proj.is_surjective()
    k, iota = proj.kernel()
    # kernel of R -> R/(x) is the ideal (x), of rank one
    assert k.ngens == 1
    assert k.rank() == 1
    assert iota.check() and iota.is_injective()
