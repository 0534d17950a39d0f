import importlib
import random

import pytest

from hwprobe import (
    CONJECTURE_HOLDS,
    COUNTEREXAMPLE_CANDIDATE,
    GradedMap,
    HypothesisError,
    define_ring,
    depth_zero_check,
    even_dim_torsion_check,
    free_module,
    hw_check,
    ideal_module,
    parse_polynomial,
    quotient_module,
    rigidity_probe,
    theta,
    ThetaResult,
    theta_additivity_check,
    verify_short_exact,
)
from hwprobe import homalg
from hwprobe.freemod import unit_vector
from hwprobe.theta import cokernel_with_projection, random_short_exact_sequence


def P(rq, s):
    return parse_polynomial(rq.ambient, s)


def test_theta_value_on_quadric_pair(threefold_mn):
    m, n = threefold_mn
    res = theta(m, n)
    assert res.value == -1
    assert res.lengths[2 * res.stable_index] - \
        res.lengths[2 * res.stable_index - 1] == -1
    # stabilization certificate: the next index pair gives the same value
    assert res.lengths[2 * res.stable_index + 2] - \
        res.lengths[2 * res.stable_index + 1] == -1


def test_theta_against_free_is_zero(threefold, threefold_mn):
    m, _ = threefold_mn
    assert theta(m, free_module(threefold, (0,))).value == 0


def test_theta_additive_on_direct_sum(threefold_mn):
    m, n = threefold_mn
    assert theta(m, n.direct_sum(n)).value == -2


def test_theta_needs_locus_hypothesis(threefold):
    # R/(x, y) fails to be locally of finite projective dimension away from
    # the irrelevant ideal?  It does not: it IS locally free there, so use a
    # module genuinely failing the hypothesis: over the 1-dim ring k[x,y]/(x*y)
    # no domain flag means rank (hence the locus test) is unavailable
    bad = define_ring(["x", "y"], [1, 1], 7, ["x*y"])
    m = quotient_module(bad, [P(bad, "x")])
    with pytest.raises(HypothesisError):
        theta(m, m)


def test_theta_zero_for_pd_finite(threefold):
    rx = quotient_module(threefold, [P(threefold, "x")])
    n = quotient_module(threefold, [P(threefold, "x"), P(threefold, "y")])
    res = theta(rx, n)
    assert res.value == 0
    assert res.periodicity["via"] == "finite projective dimension"


def test_split_sequence_additivity(threefold, threefold_mn):
    m, n = threefold_mn
    amb = threefold.ambient
    x, z = n, n.twist(-1)
    y = x.direct_sum(z)
    f = GradedMap(x, y, [unit_vector(amb, j) for j in range(x.ngens)])
    g = GradedMap(y, z, [({} if j < x.ngens else
                          unit_vector(amb, j - x.ngens))
                         for j in range(y.ngens)])
    ok, reason = verify_short_exact(f, g)
    assert ok, reason
    out = theta_additivity_check(m, f, g)
    assert out["additive"]
    assert out["theta_Y"] == out["theta_X"] + out["theta_Z"]


def test_multiplication_sequence_gives_zero_theta(threefold, threefold_mn):
    # 0 -> N(-1) -w-> N -> N/wN -> 0 with w a nonzerodivisor on N = R/(x,y):
    # theta against the quotient must vanish
    m, n = threefold_mn
    amb = threefold.ambient
    src = n.twist(-1)
    f = GradedMap(src, n, [{(0, (0, 0, 0, 1)): 1}])
    ok, reason = verify_short_exact(
        f, cokernel_with_projection(f)[1])
    assert ok, reason
    z, g = cokernel_with_projection(f)
    out = theta_additivity_check(m, f, g)
    assert out["additive"]
    assert out["theta_Z"] == 0


def test_random_sequences_are_exact_and_additive(threefold_mn):
    m, n = threefold_mn
    rng = random.Random(11)
    for _ in range(3):
        f, g = random_short_exact_sequence(n, rng)
        ok, reason = verify_short_exact(f, g)
        assert ok, reason
        assert theta_additivity_check(m, f, g)["additive"]


def test_rigidity_probe_reports_gap_without_flagging(threefold_mn):
    m, n = threefold_mn
    out = rigidity_probe(m, n, window=8)
    assert out["gaps"] and out["gaps"][0]["vanishes_at"] == 2
    assert not out["refutation_grade_anomaly"]
    assert out["hypotheses"]["ring_class"] is None  # dimension three


def test_rigidity_probe_free_module_no_gaps(cusp):
    out = rigidity_probe(free_module(cusp, (0,)),
                         free_module(cusp, (0,)), window=6)
    assert not out["gaps"]
    assert all(v == 0 for v in out["lengths"][1:])


def test_rigidity_probe_two_periodic_no_gap(cusp, cusp_m):
    k = quotient_module(cusp, [P(cusp, "x"), P(cusp, "y")])
    out = rigidity_probe(cusp_m, k, window=10)
    assert out["hypotheses"]["two_periodic"]
    assert out["hypotheses"]["ring_class"] == "one-dimensional domain"
    assert not out["gaps"]
    assert not out["refutation_grade_anomaly"]


def semigroup_345_and_maximal_ideal():
    # k[t^3, t^4, t^5]: a one-dimensional domain that is not a hypersurface
    a = define_ring(["x", "y", "z"], [3, 4, 5], 101,
                    ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"], domain=True)
    return a, ideal_module(a, [P(a, "x"), P(a, "y"), P(a, "z")])


def test_theta_needs_syzygy_iso_off_hypersurfaces():
    _, m = semigroup_345_and_maximal_ideal()
    with pytest.raises(HypothesisError, match=r"not eventually two-periodic "
                       r"\(syzygy comparison: NOT_ISO\)"):
        theta(m, m)


def test_rigidity_probe_two_periodicity_by_syzygy_iso():
    # over F_5[x, y]/(x^2, y^2) the syzygy of R/(x) is (x) = R/(x)(-1)
    r = define_ring(["x", "y"], [1, 1], 5, ["x^2", "y^2"])
    m = quotient_module(r, [P(r, "x")])
    out = rigidity_probe(m, m, window=4)
    assert out["hypotheses"] == {"ring_class": "artinian",
                                 "two_periodic": True}
    _, mx = semigroup_345_and_maximal_ideal()
    out = rigidity_probe(mx, mx, window=2)
    assert out["hypotheses"] == {"ring_class": "one-dimensional domain",
                                 "two_periodic": False}


def test_hw_check_on_cusp(cusp_m):
    out = hw_check(cusp_m)
    assert out["verdict"] == CONJECTURE_HOLDS
    assert out["torsion_length"] >= 1
    assert out["tate_crosscheck_agrees"] and out["ext_crosscheck_agrees"]
    assert out["two_periodic"]


@pytest.mark.parametrize("names, weights, p, eqs, length", [
    (["x", "y"], [3, 2], 7, ["x^2 - y^3"], 2),
    # k[t^3, t^4, t^5]: a one-dimensional domain, not Gorenstein
    (["x", "y", "z"], [3, 4, 5], 101,
     ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"], 6),
])
def test_hw_check_agrees_under_lex(names, weights, p, eqs, length):
    # the whole probe on the lex order's packed terms gives grevlex's answer
    got = []
    for order in ("grevlex", "lex"):
        rq = define_ring(names, weights, p, eqs, order=order, domain=True)
        out = hw_check(ideal_module(rq, [P(rq, v) for v in names]))
        got.append((out["verdict"], out["torsion_length"]))
    assert got == [(CONJECTURE_HOLDS, length)] * 2


def test_hw_check_rejects_free_input(cusp):
    with pytest.raises(HypothesisError):
        hw_check(free_module(cusp, (0,)))


def test_hw_check_rejects_torsion_input(cusp):
    rx = quotient_module(cusp, [P(cusp, "x")])
    with pytest.raises(HypothesisError):
        hw_check(rx)


def test_hw_check_rejects_wrong_dimension(threefold):
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    with pytest.raises(HypothesisError):
        hw_check(m)


def test_even_dim_check(surface_mcm):
    out = even_dim_torsion_check(surface_mcm)
    assert out["verdict"] == "TORSION_PRESENT"
    assert out["torsion_length"] >= 1


def test_even_dim_check_rejects_zero_and_free(surface):
    with pytest.raises(HypothesisError):
        even_dim_torsion_check(quotient_module(surface, [P(surface, "1")]))
    with pytest.raises(HypothesisError):
        even_dim_torsion_check(free_module(surface, (0,)))


def test_depth_zero_check(cusp_m):
    out = depth_zero_check(cusp_m)
    assert out["verdict"] == "DEPTH_ZERO"


def test_depth_zero_check_rejects_free(cusp):
    with pytest.raises(HypothesisError):
        depth_zero_check(free_module(cusp, (0,)))


def test_stable_syzygy_depth_zero(torus_dim1):
    m = ideal_module(torus_dim1, [P(torus_dim1, "x"), P(torus_dim1, "y")])
    out = depth_zero_check(m)
    assert out["verdict"] == "DEPTH_ZERO"


def test_hw_check_recheck_runs_under_the_other_order(monkeypatch):
    # a grevlex torsion of 0 must not survive the recheck, which rebuilds
    # the ring under lex: over k[t^3, t^4, t^5] (not a hypersurface, so no
    # Tate cross-check intervenes) the lex torsion overrules it.  The
    # attribute ``hwprobe.theta`` is the function, so the module is imported
    # by its dotted name.
    theta_module = importlib.import_module("hwprobe.theta")
    real = theta_module._torsion_both_ways
    orders = []

    def grevlex_says_zero(m):
        orders.append(m.ring.ambient.order)
        return 0 if m.ring.ambient.order == "grevlex" else real(m)

    monkeypatch.setattr(theta_module, "_torsion_both_ways", grevlex_says_zero)
    names = ["x", "y", "z"]
    rq = define_ring(names, [3, 4, 5], 101,
                     ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"], domain=True)
    out = hw_check(ideal_module(rq, [P(rq, v) for v in names]))
    assert orders == ["grevlex", "lex"]
    assert out["recheck_torsion_length"] == out["torsion_length"] == 6
    assert out["verdict"] == CONJECTURE_HOLDS


def test_hw_check_candidate_certificate_names_both_paths(t345, monkeypatch):
    # no catalog job reaches a candidate: both orders report a torsion of 0
    theta_module = importlib.import_module("hwprobe.theta")
    orders = []

    def says_zero(m):
        orders.append(m.ring.ambient.order)
        return 0

    monkeypatch.setattr(theta_module, "_torsion_both_ways", says_zero)
    out = hw_check(ideal_module(t345, [P(t345, v) for v in "xyz"]))
    assert orders == ["grevlex", "lex"]
    assert out["verdict"] == COUNTEREXAMPLE_CANDIDATE
    assert out["torsion_length"] == out["recheck_torsion_length"] == 0
    cert = out["certificate"]
    assert cert["torsion_by_x_power"] == cert["torsion_by_biduality"] == 0
    assert "torsion_by_saturation" not in cert


def test_hw_check_saturates_only_for_the_precheck(cusp, monkeypatch):
    # the torsion of M (x) M* comes from Hilbert numerators: saturation runs
    # once, on M, and no kernel module is built
    saturated, kernels = [], []
    saturate = homalg.saturate

    def counting(ring, u_cols, twists, *rest):
        saturated.append(twists)
        return saturate(ring, u_cols, twists, *rest)

    monkeypatch.setattr(homalg, "saturate", counting)
    monkeypatch.setattr(GradedMap, "kernel", lambda f: kernels.append(f))
    m = ideal_module(cusp, [P(cusp, "x"), P(cusp, "y")])
    assert hw_check(m)["torsion_length"] == 2
    assert saturated == [m.twists] and kernels == []


def test_short_exact_check_finds_a_kernel_of_f():
    # over k[x, y]/(xy), y: R(-1) -> R kills x, and R -> R/(y) is onto with
    # g o f = 0
    r = define_ring(["x", "y"], [1, 1], 7, ["x*y"])
    amb = r.ambient
    one = free_module(r, (0,))
    f = GradedMap(one.twist(-1), one, [{(0, (0, 1)): 1}])
    g = GradedMap(one, quotient_module(r, [P(r, "y")]),
                  [unit_vector(amb, 0)])
    assert not f.is_injective()
    assert verify_short_exact(f, g) == (False, "f has a kernel")


def test_short_exact_check_finds_ker_g_beyond_im_f():
    # over k[x, y], x^2: R(-2) -> R is injective and R -> R/(x) is onto with
    # g o f = 0, but ker g = (x) is larger than im f = (x^2)
    r = define_ring(["x", "y"], [1, 1], 7, [])
    amb = r.ambient
    one = free_module(r, (0,))
    f = GradedMap(one.twist(-2), one, [{(0, (2, 0)): 1}])
    g = GradedMap(one, quotient_module(r, [P(r, "x")]),
                  [unit_vector(amb, 0)])
    assert f.is_injective() and g.is_surjective()
    assert verify_short_exact(f, g) == (False, "ker g exceeds im f")
    # the same g after x: R(-1) -> R is exact
    f1 = GradedMap(one.twist(-1), one, [{(0, (1, 0)): 1}])
    assert verify_short_exact(f1, g) == (True, "exact")


def test_theta_result_record():
    args = (-1, 4, {3: 0, 4: 1}, 3, {"via": "matrix-factorization"})
    r = ThetaResult(*args)
    assert r == ThetaResult(value=-1, stable_index=4, lengths={3: 0, 4: 1},
                            replacement_index=3,
                            periodicity={"via": "matrix-factorization"})
    assert r != ThetaResult(0, *args[1:])
    assert r != ThetaResult(*args[:4], {"via": "syzygy-isomorphism"})
    # the text the result printed as a dataclass
    assert repr(r) == ("ThetaResult(value=-1, stable_index=4, "
                       "lengths={3: 0, 4: 1}, replacement_index=3, "
                       "periodicity={'via': 'matrix-factorization'})")
    assert r.to_dict() == {"value": -1, "stable_index": 4,
                           "lengths": {"3": 0, "4": 1},
                           "replacement_index": 3,
                           "periodicity": {"via": "matrix-factorization"}}
