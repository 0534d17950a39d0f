import pytest

from hwprobe import (
    HypothesisError,
    complete_resolution,
    define_ring,
    dual,
    free_module,
    matrix_factorization_of,
    parse_polynomial,
    quotient_module,
    syzygy_module,
    tate_ext_length,
    tate_tor,
    tate_tor_length,
    tor_length,
)
from hwprobe.freemod import compose_cols


def P(rq, s):
    return parse_polynomial(rq.ambient, s)


def test_cusp_matrix_factorization(cusp, cusp_m):
    mf = matrix_factorization_of(cusp_m)
    assert mf.size == 2
    amb = cusp.ambient
    f = cusp.hypersurface_poly
    for prod in (compose_cols(amb, mf.a_cols, mf.b_cols),
                 compose_cols(amb, mf.b_cols, mf.a_cols)):
        for j, col in enumerate(prod):
            assert col == {(j, m): c for m, c in f.items()}
    # the cokernel of A is the module we started from
    from hwprobe import is_isomorphic, ISO
    assert is_isomorphic(mf.module(), cusp_m).verdict == ISO


def test_knorrer_style_factorization_of_stable_syzygy(threefold):
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    l3 = syzygy_module(m, 3, trim=True)
    mf = matrix_factorization_of(l3)
    assert mf.size == 2
    amb = threefold.ambient
    prod = compose_cols(amb, mf.a_cols, mf.b_cols)
    f = threefold.hypersurface_poly
    for j, col in enumerate(prod):
        assert col == {(j, m): c for m, c in f.items()}


def test_free_summand_is_rejected(cusp, cusp_m):
    s = cusp_m.direct_sum(free_module(cusp, (0,)))
    with pytest.raises(HypothesisError):
        matrix_factorization_of(s)


def test_non_mcm_is_rejected(threefold):
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    with pytest.raises(HypothesisError):
        matrix_factorization_of(m)  # depth 2 < dim 3


def test_complete_resolution_verifies(cusp, cusp_m):
    cr = complete_resolution(cusp_m, 2, window=4)
    assert cr.q == 2
    assert cr.shift == 6  # degree of x^2 - y^3 in weights (3, 2)
    assert cr.verify(4)


def test_verify_rejects_negative_window(cusp, cusp_m):
    # B replaced by zero keeps d^2 = 0 but leaves homology: not exact, and a
    # negative window must not report it verified
    from hwprobe.tate import CompleteResolution
    cr = complete_resolution(cusp_m, 2, window=4)
    broken = CompleteResolution(cusp, 2, 0, [cr.cycle[0], [{}] * len(cr.cycle[1])],
                                cr.levels, cr.shift, {})
    assert not broken.verify(2)
    for c in (cr, broken):
        with pytest.raises(ValueError, match="window must be >= 0"):
            c.verify(-3)


def test_pd_finite_module_has_no_complete_resolution(threefold):
    rx = quotient_module(threefold, [P(threefold, "x")])
    with pytest.raises(HypothesisError):
        complete_resolution(rx, 2, window=3)
    r2 = define_ring(["x", "y"], [1, 1], 7, [])
    k = quotient_module(r2, [P(r2, "x"), P(r2, "y")])
    with pytest.raises(HypothesisError):
        complete_resolution(k, 2, window=3)


def test_gp_period_four_complete_resolution(gp_ring_t, gp_module_t):
    cr = complete_resolution(gp_module_t, 4, window=4)
    assert cr.q == 4
    assert cr.verify(4)


def test_tate_tor_against_ring_vanishes(cusp, cusp_m):
    cr = complete_resolution(cusp_m, 2, window=4)
    r1 = free_module(cusp, (0,))
    assert all(tate_tor_length(cr, r1, i) == 0 for i in range(-4, 5))


def test_tate_agrees_with_tor_in_positive_degrees(cusp, cusp_m):
    cr = complete_resolution(cusp_m, 2, window=4)
    md = dual(cusp_m)
    for i in (1, 2, 3, 4):
        assert tate_tor_length(cr, md, i) == tor_length(cusp_m, md, i)


def test_tate_tor_at_zero_detects_torsion(cusp, cusp_m):
    cr = complete_resolution(cusp_m, 2, window=4)
    md = dual(cusp_m)
    t0 = tate_tor(cr, md, 0)
    assert not t0.is_zero()
    assert tate_tor_length(cr, md, 0) == t0.length() == 2


def test_shift_law(cusp, cusp_m):
    md = dual(cusp_m)
    cr = complete_resolution(cusp_m, 2, window=4)
    for n in (1, 2):
        om = syzygy_module(cusp_m, n, trim=True)
        crn = complete_resolution(om, 2, window=4)
        for i in range(-3, 4):
            assert tate_tor_length(cr, md, i + n) == \
                tate_tor_length(crn, md, i)


def test_duality_law(cusp, cusp_m):
    md = dual(cusp_m)
    cr = complete_resolution(cusp_m, 2, window=4)
    crd = complete_resolution(md, 2, window=4)
    k = quotient_module(cusp, [P(cusp, "x"), P(cusp, "y")])
    for n_mod in (md, k):
        for i in range(-3, 4):
            assert tate_tor_length(cr, n_mod, i) == \
                tate_ext_length(crd, n_mod, -i - 1)


def test_vanishing_propagates_around_the_period(cusp, cusp_m, surface,
                                                surface_mcm):
    # with period two, one vanishing residue forces the other for pairs of
    # MCM modules against the free module, and the biconditional holds on
    # catalog pairs
    for ring, mod in ((cusp, cusp_m), (surface, surface_mcm)):
        cr = complete_resolution(mod, 2, window=3)
        r1 = free_module(ring, (0,))
        vals = [tate_tor_length(cr, r1, i) for i in (0, 1)]
        assert (vals[0] == 0) == (vals[1] == 0)


def test_period_four_tate_lengths_repeat(gp_ring_t, gp_module_t):
    from hwprobe import residue_field_module
    cr = complete_resolution(gp_module_t, 4, window=3)
    k = residue_field_module(gp_ring_t)
    tor_vals = [tate_tor_length(cr, k, i) for i in range(-4, 6)]
    ext_vals = [tate_ext_length(cr, k, i) for i in range(-4, 6)]
    for i in range(len(tor_vals) - 4):
        assert tor_vals[i] == tor_vals[i + 4]
        assert ext_vals[i] == ext_vals[i + 4]
    assert all(v > 0 for v in tor_vals)  # the residue field never vanishes


def test_detected_period_two_on_nonhypersurface(gp_ring_t, gp_module_t):
    # X = N + (O^2 N)(2) is honestly two-periodic over the one-dimensional
    # extension although the ring is not a hypersurface; the detection
    # route must find, certify and verify the period-two cycle
    x = gp_module_t.direct_sum(syzygy_module(gp_module_t, 2).twist(2))
    cr = complete_resolution(x, 2, window=3)
    assert cr.q == 2
    assert cr.provenance["via"] == "detected-periodicity"
    assert cr.verify(3)
    from hwprobe import residue_field_module
    k = residue_field_module(gp_ring_t)
    vals = [tate_tor_length(cr, k, i) for i in range(-2, 4)]
    assert vals[0] == vals[2] == vals[4]


def test_torsion_tate_biconditional_on_dim1_pairs(cusp, cusp_m):
    from hwprobe import tensor, torsion_submodule
    md = dual(cusp_m)
    r1 = free_module(cusp, (0,))
    cr = complete_resolution(cusp_m, 2, window=3)
    for other in (md, cusp_m, r1):
        t, _ = torsion_submodule(tensor(cusp_m, other), "saturation")
        assert t.is_zero() == (tate_tor_length(cr, other, 0) == 0)


def test_tate_ext_module_matches_its_length(cusp, cusp_m):
    from hwprobe import tate_ext
    cr = complete_resolution(cusp_m, 2, window=3)
    md = dual(cusp_m)
    mod = tate_ext(cr, md, 0)
    assert not mod.is_zero()
    assert mod.length() == tate_ext_length(cr, md, 0)
    neg = tate_ext(cr, md, -2)
    assert neg.length() == tate_ext_length(cr, md, -2)


def test_verify_rejects_a_complex_that_does_not_square_to_zero(cusp, cusp_m):
    # x * e_0 in place of the first column of B: A o B is no longer zero
    from hwprobe.groebner import composes_to_zero
    from hwprobe.tate import CompleteResolution
    cr = complete_resolution(cusp_m, 2, window=4)
    (x_mono, _), = P(cusp, "x").items()
    b = [{(0, x_mono): 1}] + cr.cycle[1][1:]
    assert composes_to_zero(cusp, cr.cycle[0], cr.cycle[1])
    assert not composes_to_zero(cusp, cr.cycle[0], b)
    broken = CompleteResolution(cusp, 2, 0, [cr.cycle[0], b], cr.levels,
                                cr.shift, {})
    assert broken.verify(0) is False


def test_tate_length_cache_tells_temporary_modules_apart(cusp, cusp_m):
    # the modules are temporaries, so CPython hands a freed module's address
    # to the next one; a cache keyed by id() returns the other module's length
    from hwprobe import residue_field_module
    cr = complete_resolution(cusp_m, 2, window=4)
    for j in range(40):
        mod = residue_field_module(cusp) if j % 2 else free_module(cusp, (0,))
        assert tate_tor_length(cr, mod, 0) == tate_tor(cr, mod, 0).length()


def test_verify_rejects_a_square_zero_complex_that_is_not_exact(cusp, cusp_m):
    # (x*A, B) is square-zero over R, but x*A kills less than the image of B
    from hwprobe import CompleteResolution
    from hwprobe.freemod import vec_mul_term
    mf = matrix_factorization_of(cusp_m)
    x = P(cusp, "x")
    (x_mono, _), = x.items()
    xa = [vec_mul_term(col, x_mono, 1, cusp.ambient.p) for col in mf.a_cols]
    shift = mf.fdeg + 3
    cr = CompleteResolution(
        cusp, 2, 0, [xa, list(mf.b_cols)],
        [mf.row_twists, tuple(t + 3 for t in mf.col_twists),
         tuple(t + shift for t in mf.row_twists)],
        shift, {"via": "test"})
    assert cr.verify(2) is False
    assert tate_tor_length(cr, free_module(cusp, (0,)), 0) > 0


def test_verify_finds_the_one_non_exact_residue_class(cusp, cusp_m):
    # period 4: (x*A, B, A, B).  x is a nonzerodivisor on the image of A, so
    # x*A kills what A kills and only the positions next to x*A fail: H_i of
    # T (x) R at i = 0 and H^i of Hom(T, R) at i = 1 (mod 4)
    from hwprobe import CompleteResolution
    from hwprobe.freemod import vec_mul_term
    mf = matrix_factorization_of(cusp_m)
    (x_mono, _), = P(cusp, "x").items()
    xa = [vec_mul_term(col, x_mono, 1, cusp.ambient.p) for col in mf.a_cols]
    f, c, r = mf.fdeg, mf.col_twists, mf.row_twists
    levels = [r, tuple(t + 3 for t in c), tuple(t + f + 3 for t in r),
              tuple(t + f + 3 for t in c), tuple(t + 2 * f + 3 for t in r)]
    cr = CompleteResolution(cusp, 4, 0,
                            [xa, list(mf.b_cols), list(mf.a_cols),
                             list(mf.b_cols)],
                            levels, 2 * f + 3, {"via": "test"})
    r1 = free_module(cusp, (0,))
    assert [tate_tor_length(cr, r1, i) > 0 for i in range(4)] == \
        [True, False, False, False]
    assert [tate_ext_length(cr, r1, i) > 0 for i in range(4)] == \
        [False, True, False, False]
    # every window holding index 0 or 1 must see the failure
    assert not any(cr.verify(w) for w in (1, 2, 6))


def test_verify_checks_one_index_per_residue_class(gp_ring, monkeypatch):
    # the differentials repeat with period q = 4 and a twist changes no
    # vanishing, so each side needs one index per residue class in the window
    from conftest import gp_matrix_cols
    from hwprobe import PresentedModule, tate
    n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    cr = complete_resolution(n, 4, window=2)
    calls = []

    def counting(cx, module, i):
        calls.append(i)
        return length_at(cx, module, i)

    length_at = tate.length_at
    monkeypatch.setattr(tate, "length_at", counting)
    assert cr.verify(6)
    assert len(calls) == 2 * cr.q == 8
    assert {i % cr.q for i in calls} == set(range(cr.q))
    calls.clear()
    # a window shorter than the period checks each of its indices
    assert cr.verify(1)
    assert sorted(calls) == [-1, -1, 0, 0, 1, 1]


def test_matrix_factorization_over_artinian_ring_verifies():
    # over F_7[x]/(x^3), R/(x) has the matrix factorization (x, x^2), and
    # the totally acyclic check runs on ranks
    r = define_ring(["x"], [1], 7, ["x^3"])
    cr = complete_resolution(quotient_module(r, [P(r, "x")]), 2, window=3)
    assert cr.provenance["via"] == "matrix-factorization"
    assert [len(c) for c in cr.cycle] == [1, 1]
    assert cr.verify(3)
    assert all(tate_tor_length(cr, free_module(r, (0,)), i) == 0
               for i in range(-2, 3))


def test_verify_rejects_a_non_exact_complex_over_an_artinian_ring():
    # (x^2, x^2) is square-zero over F_7[x]/(x^3), since x^4 = 0, but the
    # kernel (x) of x^2 is larger than its image (x^2)
    from hwprobe import CompleteResolution
    r = define_ring(["x"], [1], 7, ["x^3"])
    x2 = {(0, (2,)): 1}
    cr = CompleteResolution(r, 2, 0, [[x2], [x2]], [(0,), (2,), (4,)], 4,
                            {"via": "test"})
    assert cr.verify(2) is False
    assert tate_tor_length(cr, free_module(r, (0,)), 0) == 1


def test_tate_length_memo_keeps_infinite_lengths(monkeypatch):
    # over F_7[x,y,z]/(xy) the module R/(x) has infinite Tate lengths; an
    # infinite length is None, and the memo must keep it like any other
    from hwprobe import tate
    r = define_ring(["x", "y", "z"], [1, 1, 1], 7, ["x*y"])
    m = quotient_module(r, [P(r, "x")])
    cr = complete_resolution(m, 2, window=3)
    calls = []

    def counting(cx, n, i):
        calls.append(i)
        return length_at(cx, n, i)

    length_at = tate.length_at
    monkeypatch.setattr(tate, "length_at", counting)
    first = [tate_tor_length(cr, m, i) for i in range(-2, 3)]
    second = [tate_tor_length(cr, m, i) for i in range(-2, 3)]
    assert first == second and None in first
    assert len(calls) == cr.q


def test_non_mcm_rejection_computes_depth_once(monkeypatch, cusp):
    from hwprobe import residue_field_module, tate
    calls = []

    def counting(module):
        calls.append(module)
        return depth(module)

    depth = tate.depth
    monkeypatch.setattr(tate, "depth", counting)
    with pytest.raises(HypothesisError, match="depth 0 < dim 1"):
        matrix_factorization_of(residue_field_module(cusp))
    assert len(calls) == 1
