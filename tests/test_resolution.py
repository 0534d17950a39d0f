import pytest

from hwprobe import (
    PresentedModule,
    betti_numbers,
    complexity_estimate,
    define_ring,
    depth,
    free_module,
    ideal_module,
    minimal_free_resolution,
    parse_polynomial,
    quotient_module,
    residue_field_module,
    syzygy_module,
    tor_length,
)
from hwprobe.resolution import Resolution, resolution_of


def P(rq, s):
    return parse_polynomial(rq.ambient, s)


def test_koszul_resolution_of_point():
    r = define_ring(["x"], [1], 7, [])
    k = quotient_module(r, [P(r, "x")])
    res = minimal_free_resolution(k, 4)
    assert res.betti_numbers(4) == [1, 1, 0, 0, 0]
    assert res.verify(3)


def test_quadric_quotient_betti(threefold):
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    assert betti_numbers(m, 6) == [1, 2, 2, 2, 2, 2, 2]


def test_gp_module_betti(gp_ring):
    from conftest import gp_matrix_cols
    n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    assert betti_numbers(n, 8) == [2] * 9


def test_residue_field_over_cusp_betti(cusp):
    k = residue_field_module(cusp)
    assert betti_numbers(k, 6) == [1, 2, 2, 2, 2, 2, 2]


@pytest.mark.parametrize("window", [0, 1, 5])
def test_betti_numbers_build_only_the_levels_read(threefold, window):
    # b_0..b_w need d_1..d_w; d_{w+1} would cost a level nobody reads
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    assert betti_numbers(m, window) == [1] + [2] * window
    assert resolution_of(m, 1).length == max(window, 1)
    res = Resolution(m)
    assert res.betti_numbers(window) == [1] + [2] * window
    assert res.length == max(window, 1)


def test_tor_keeps_the_next_differential(threefold, threefold_mn):
    # Tor_i reads d_{i+1}, so it must still build one level past b_i
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    tor_length(m, threefold_mn[1], 3)
    assert resolution_of(m, 1).length >= 4


def test_resolutions_are_minimal_and_exact(cusp, cusp_m):
    res = minimal_free_resolution(cusp_m, 6)
    assert res.is_minimal()
    assert res.verify(5)


def test_syzygy_conventions(cusp, cusp_m):
    assert syzygy_module(cusp_m, 0) is cusp_m
    r = define_ring(["x"], [1], 7, [])
    k = quotient_module(r, [P(r, "x")])
    o1 = syzygy_module(k, 1)
    assert o1.is_free() and o1.twists == (1,)
    with pytest.raises(ValueError):
        syzygy_module(cusp_m, -1)


def test_syzygy_zero_trims_free_summands(cusp, cusp_m):
    s = cusp_m.direct_sum(free_module(cusp, (0,)))
    assert syzygy_module(s, 0) is s
    trimmed = syzygy_module(s, 0, trim=True)
    assert trimmed.ngens == 2
    assert (trimmed.twists, list(trimmed.rels)) == \
        (cusp_m.twists, list(cusp_m.rels))


def test_verify_rejects_a_corrupted_differential(cusp, cusp_m):
    # a fresh resolution, so the memoized one stays intact; x * e_0 in place
    # of the first column of d_3 makes d_2 o d_3 nonzero over the domain R
    res = Resolution(cusp_m).extend(4)
    assert res.verify(3)
    (x_mono, _), = P(cusp, "x").items()
    res.diffs[2] = [{(0, x_mono): 1}] + res.diffs[2][1:]
    assert res.verify(3) is False


def test_betti_numbers_are_order_independent():
    for order in ("grevlex", "lex"):
        r = define_ring(["x", "y", "z", "w"], [1, 1, 1, 1], 101,
                        ["x*w - y*z"], order=order, domain=True)
        m = quotient_module(r, [P(r, "x"), P(r, "z")])
        assert betti_numbers(m, 5) == [1, 2, 2, 2, 2, 2]
    for order in ("grevlex", "lex"):
        r = define_ring(["x", "y"], [3, 2], 7, ["x^2 - y^3"], order=order,
                        domain=True)
        m = ideal_module(r, [P(r, "x"), P(r, "y")])
        assert betti_numbers(m, 5) == [2, 2, 2, 2, 2, 2]


def test_auslander_buchsbaum_on_pd_finite_samples(threefold):
    # R/(x) has projective dimension 1: depth + pd = depth R = 3
    rx = quotient_module(threefold, [P(threefold, "x")])
    est = complexity_estimate(rx, 5)
    assert est["classification"] == "pd-finite" and est["pd"] == 1
    assert depth(rx) + est["pd"] == depth(free_module(threefold, (0,)))
    # the residue field of a polynomial ring: pd = number of variables
    r2 = define_ring(["x", "y"], [1, 1], 7, [])
    k = residue_field_module(r2)
    est = complexity_estimate(k, 5)
    assert est["classification"] == "pd-finite" and est["pd"] == 2
    assert depth(k) + est["pd"] == 2


def test_complexity_classifications(cusp, cusp_m, gp_ring):
    assert complexity_estimate(free_module(cusp, (0,)),
                               5)["classification"] == "pd-finite"
    assert complexity_estimate(cusp_m, 6)["classification"] == "bounded"
    from conftest import gp_matrix_cols
    n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    assert complexity_estimate(n, 6)["classification"] == "bounded"
    # beta_i = (3^(i+1) - 1)/2 over GP: exponential, ratio 3
    k = residue_field_module(gp_ring)
    est = complexity_estimate(k, 7)
    assert est["betti"][7] == 3280
    assert est["classification"] == "exponential-growth"
    assert est["fitted_ratio"] == 3.0
    # control: beta_i = C(i+2, 2) over a codimension-3 complete intersection
    ci = define_ring(["x", "y", "z"], [1, 1, 1], 5, ["x^2", "y^2", "z^2"])
    est = complexity_estimate(residue_field_module(ci), 7)
    assert est["betti"] == [(i + 1) * (i + 2) // 2 for i in range(8)]
    assert est["classification"] == "polynomial-growth"
    assert 1 < est["fitted_degree"] < 3


def test_levels_below_f0_are_zero():
    # k over F7[x,y]/(x^2): F_{-1} is the zero module and d_0 the zero map
    # out of F_0, whatever the resolution has been extended to
    r = define_ring(["x", "y"], [1, 1], 7, ["x^2"])
    res = resolution_of(residue_field_module(r), 3)
    assert res.twists_at(-1) == ()
    assert res.differential(0) == [{}]
    assert res.differential(-1) == res.differential(-5) == []


def test_dual_of_a_resolution_is_zero_above_its_start(gp_ring):
    # (C*)_2 = (C_{-2})* = 0, so the dual's d_2 is the empty map and its
    # homology there vanishes
    from hwprobe.homalg import DualComplex, length_at
    k = residue_field_module(gp_ring)
    dual = DualComplex(resolution_of(k, 2))
    assert dual.differential(2) == []
    assert length_at(dual, k, 2) == 0


def test_readers_extend_only_missing_levels(threefold, monkeypatch):
    # every extend call must build a level: reading an existing level
    # (hom reads F_0, F_1 and d_1) costs no call
    from hwprobe.homalg import hom
    calls = []
    real_extend = Resolution.extend

    def counting_extend(self, t):
        calls.append((self.length, t))
        return real_extend(self, t)

    monkeypatch.setattr(Resolution, "extend", counting_extend)
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    n = quotient_module(threefold, [P(threefold, "x"), P(threefold, "y")])
    hom(m, n)
    hom(m, n)
    assert calls == []
    res = resolution_of(m, 1)
    assert res.twists_at(3) == (3, 3)
    assert calls == [(1, 3)]
    res.twists_at(3), res.differential(3), res.betti(2), res.betti_numbers(3)
    res.verify(2)
    tor_length(m, n, 2)
    resolution_of(m, 3)
    assert calls == [(1, 3)]
    assert res.betti(4) == 2 and calls == [(1, 3), (3, 4)]


# -- Poincare series in positive dimension -----------------------------------


def _series(numer, denom, n):
    """Coefficients t^0..t^n of numer/denom (integer lists, denom[0] = 1)."""
    out = []
    for i in range(n + 1):
        c = numer[i] if i < len(numer) else 0
        out.append(c - sum(denom[j] * out[i - j]
                           for j in range(1, min(i, len(denom) - 1) + 1)))
    return out


def test_residue_field_over_monomial_curve_has_golod_series():
    # A = k[t^3, t^4, t^5] has codimension 2 and is not a complete
    # intersection, so it is Golod (Scheja 1964): P_k(t) = (1+t)^3 /
    # (1 - 3t^2 - 2t^3), from the Koszul homology ranks 3 and 2
    a = define_ring(["x", "y", "z"], [3, 4, 5], 101,
                    ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"])
    assert a.dim == 1
    res = resolution_of(residue_field_module(a), 6)
    expected = _series([1, 3, 3, 1], [1, 0, -3, -2], 6)
    assert expected == [1, 3, 6, 12, 24, 48, 96]
    assert res.betti_numbers(6) == expected
    # d_i o d_{i+1} = 0 for every pair of computed differentials
    assert res.verify(5) and res.length == 6


def test_residue_field_over_complete_intersection_has_tate_series():
    # B = k[t^4, t^5, t^6] is a complete intersection of codimension 2, so
    # P_k(t) = (1+t)^3 / (1-t^2)^2 (Tate 1957)
    b = define_ring(["x", "y", "z"], [4, 5, 6], 101,
                    ["y^2 - x*z", "z^2 - x^3"])
    assert b.dim == 1
    res = resolution_of(residue_field_module(b), 7)
    expected = _series([1, 3, 3, 1], [1, 0, -2, 0, 1], 7)
    assert expected == [2 * i + 1 for i in range(8)]
    assert res.betti_numbers(7) == expected
    assert res.verify(6) and res.length == 7
