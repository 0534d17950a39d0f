"""Acceptance suite: every shipped guarantee, one test per criterion.

All equalities are exact integer/boolean checks (symbolic computation has no
tolerance).  Each test prints a single summary line; run with ``pytest -s``
to see them alongside the timings, which must come in under the stated caps.
"""

import random
import time

import pytest

from hwprobe import (
    CONJECTURE_HOLDS,
    ISO,
    NOT_ISO,
    PresentedModule,
    betti_numbers,
    complete_resolution,
    complexity_estimate,
    define_ring,
    depth,
    dual,
    even_dim_torsion_check,
    free_module,
    grade,
    hw_check,
    ideal_module,
    is_isomorphic,
    parse_polynomial,
    quotient_module,
    residue_field_module,
    rigidity_probe,
    syzygy_module,
    tate_ext_length,
    tate_tor_length,
    tensor,
    theta,
    theta_additivity_check,
    tor_length,
    torsion_submodule,
    transpose,
    verify_short_exact,
)
from hwprobe.homalg import tor_is_zero
from hwprobe.groebner import kernel_into_quotient
from hwprobe.modules import homology_length
from hwprobe.theta import random_short_exact_sequence

from conftest import gp_matrix_cols


def report(label, seconds, cap):
    print(f"\nacceptance {label}: PASS ({seconds:.1f} s, cap {cap} s)")
    assert seconds < cap, f"{label} exceeded its time cap"


def test_1_threefold_tor_vanishing_and_theta(threefold_mn):
    started = time.time()
    m, n = threefold_mn
    assert tor_length(m, n, 2) == 0
    assert tor_length(m, n, 3) >= 1
    res = theta(m, n)
    assert res.value == -1
    ls = res.lengths
    s = res.stable_index
    assert ls[2 * s] - ls[2 * s - 1] == -1
    assert ls[2 * s + 2] - ls[2 * s + 1] == -1  # stabilization certificate
    report("1/8 threefold Tor vanishing and theta = -1",
           time.time() - started, 30)


def test_2_periodic_module_family(gp_ring, gp_ring_t, gp_module_t):
    started = time.time()
    # (a) the periodic two-generator complex is exact in degrees 1..8
    ring = gp_ring
    for i in range(1, 9):
        d_i = gp_matrix_cols(ring, i)
        d_next = gp_matrix_cols(ring, i + 1)
        twists_i = (i, i)
        twists_prev = (i - 1, i - 1)
        z = kernel_into_quotient(ring, d_i, [], twists_prev)
        assert homology_length(ring, twists_i, z, d_next) == 0, \
            f"homology at position {i} is nonzero"
    # (b) the first and fifth matrices agree literally, and the fourth
    # syzygy is the module itself up to twist
    assert gp_matrix_cols(ring, 1) == gp_matrix_cols(ring, 5)
    n_r = PresentedModule(ring, (0, 0), gp_matrix_cols(ring, 1))
    res4 = is_isomorphic(n_r, syzygy_module(n_r, 4), allow_twist=True)
    assert res4.verdict == ISO and res4.twist == 4
    # (c) no earlier matrix gives an isomorphic cokernel
    for i in (1, 2, 3):
        other = PresentedModule(ring, (0, 0), gp_matrix_cols(ring, 1 + i))
        assert is_isomorphic(n_r, other, allow_twist=True).verdict == NOT_ISO
        assert is_isomorphic(n_r, syzygy_module(n_r, i),
                             allow_twist=True).verdict == NOT_ISO
    # (d) over the one-dimensional extension, X = N + O^2N(2) satisfies
    # X = O^2 X up to twist
    n_t = gp_module_t
    x = n_t.direct_sum(syzygy_module(n_t, 2).twist(2))
    resx = is_isomorphic(x, syzygy_module(x, 2), allow_twist=True)
    assert resx.verdict == ISO and resx.twist == 2
    report("2/8 period-four module family and two-periodic sum",
           time.time() - started, 120)


def _dim1_probe(ring, label):
    amb = ring.ambient
    m = ideal_module(ring, [parse_polynomial(amb, "x"),
                            parse_polynomial(amb, "y")])
    out = hw_check(m)
    assert out["verdict"] == CONJECTURE_HOLDS, label
    assert out["torsion_length"] >= 1
    assert out["tate_tor0_length"] >= 1
    assert out["tate_crosscheck_agrees"]
    assert out["ext1_vanishes"] is False
    assert out["ext_crosscheck_agrees"]
    # the biconditional in the torsion-free direction: against the free
    # module the product is torsion-free and the Tate group vanishes
    trimmed, _ = m.trim_free_summands()
    cr = complete_resolution(trimmed, 2, window=3)
    r1 = free_module(ring, (0,))
    t_free, _ = torsion_submodule(tensor(m, r1), "saturation")
    assert t_free.is_zero() and tate_tor_length(cr, r1, 0) == 0
    assert depth(tensor(m, r1)) >= 1


def test_3_dim1_hypersurface_torsion_probes(cusp, fermat_dim1, torus_dim1):
    for ring, label, cap in ((cusp, "cusp", 60),
                             (fermat_dim1, "quartic", 60),
                             (torus_dim1, "quintic", 60)):
        started = time.time()
        _dim1_probe(ring, label)
        assert time.time() - started < cap
    report("3/8 torsion, Tate and Ext detectors agree on three "
           "one-dimensional hypersurface domains", 0.0, 60)


def test_4_theta_additivity_on_random_sequences(threefold, threefold_mn):
    started = time.time()
    m, n = threefold_mn
    amb = threefold.ambient
    rng = random.Random(20260810)
    ys = [n,
          n.direct_sum(n.twist(-1)),
          quotient_module(threefold, [parse_polynomial(amb, "y"),
                                      parse_polynomial(amb, "w")]),
          quotient_module(threefold, [parse_polynomial(amb, "x"),
                                      parse_polynomial(amb, "w")]),
          ]
    checked = 0
    while checked < 10:
        y = ys[checked % len(ys)]
        f, g = random_short_exact_sequence(y, rng)
        ok, reason = verify_short_exact(f, g)
        assert ok, reason
        out = theta_additivity_check(m, f, g)
        assert out["additive"], out
        checked += 1
    report(f"4/8 theta additive on {checked} random exact sequences",
           time.time() - started, 300)


def test_5_tate_property_suite(cusp, cusp_m, fermat_dim1, torus_dim1,
                               threefold, surface, surface_mcm):
    started = time.time()
    window = 8
    pairs = []
    pairs.append((cusp_m, dual(cusp_m)))
    pairs.append((cusp_m, residue_field_module(cusp)))
    for ring in (fermat_dim1, torus_dim1):
        amb = ring.ambient
        m = ideal_module(ring, [parse_polynomial(amb, "x"),
                                parse_polynomial(amb, "y")])
        pairs.append((m, dual(m)))
    pairs.append((surface_mcm, dual(surface_mcm)))
    big = quotient_module(threefold, [parse_polynomial(threefold.ambient, "x"),
                                      parse_polynomial(threefold.ambient, "z")])
    stable = syzygy_module(big, 3, trim=True)
    pairs.append((stable, quotient_module(
        threefold, [parse_polynomial(threefold.ambient, "x"),
                    parse_polynomial(threefold.ambient, "y")])))
    assert len(pairs) >= 5
    for m, n in pairs:
        cr = complete_resolution(m, 2, window=4)
        # shift law for n = 0, 1, 2
        for sh in (1, 2):
            om = syzygy_module(m, sh, trim=True)
            crs = complete_resolution(om, 2, window=3)
            for i in range(-window, window + 1):
                assert tate_tor_length(cr, n, i + sh) == \
                    tate_tor_length(crs, n, i)
        # duality law against the dual's complete resolution
        md = dual(m)
        crd = complete_resolution(md, 2, window=3)
        for i in range(-window, window + 1):
            assert tate_tor_length(cr, n, i) == \
                tate_ext_length(crd, n, -i - 1)
        # agreement with Tor above the Gorenstein dimension
        for i in range(1, window + 1):
            assert tate_tor_length(cr, n, i) == tor_length(m, n, i)
    report(f"5/8 shift, duality and Tor agreement on {len(pairs)} "
           "matrix-factorization pairs", time.time() - started, 600)


def test_6_freeness_and_rigidity(cusp, cusp_m, fermat_dim1, torus_dim1,
                                 threefold, surface_mcm, gp_module_t):
    started = time.time()
    amb3 = threefold.ambient
    nonfree = [cusp_m,
               quotient_module(threefold, [parse_polynomial(amb3, "x"),
                                           parse_polynomial(amb3, "z")]),
               quotient_module(threefold, [parse_polynomial(amb3, "x"),
                                           parse_polynomial(amb3, "y")]),
               surface_mcm,
               gp_module_t]
    for ring in (fermat_dim1, torus_dim1):
        amb = ring.ambient
        nonfree.append(ideal_module(ring, [parse_polynomial(amb, "x"),
                                           parse_polynomial(amb, "y")]))
    for mod in nonfree:
        assert not tor_is_zero(mod, transpose(mod), 1), \
            "freeness detector missed a nonfree module"
    # rigidity: two-periodic modules against finite-length test modules
    # over the one-dimensional catalog domains show no gap pattern
    probes = []
    for ring in (cusp, fermat_dim1, torus_dim1):
        amb = ring.ambient
        m = ideal_module(ring, [parse_polynomial(amb, "x"),
                                parse_polynomial(amb, "y")])
        probes.append((m, residue_field_module(ring)))
        probes.append((m, quotient_module(ring, [parse_polynomial(amb, "y")])))
    for m, c in probes:
        out = rigidity_probe(m, c, window=10)
        assert out["hypotheses"]["two_periodic"]
        assert out["hypotheses"]["ring_class"] == "one-dimensional domain"
        assert out["gaps"] == []
        assert not out["refutation_grade_anomaly"]
    report("6/8 transpose freeness detector and gap-free rigidity window",
           time.time() - started, 300)


def test_7_structural_suite(cusp, cusp_m, threefold, surface, surface_mcm,
                            fermat_dim1):
    started = time.time()
    amb3 = threefold.ambient
    # Auslander-Buchsbaum on pd-finite samples
    samples = [(quotient_module(threefold, [parse_polynomial(amb3, "x")]),
                threefold),
               (quotient_module(cusp, [parse_polynomial(cusp.ambient, "y")]),
                cusp)]
    r2 = define_ring(["u", "v"], [1, 1], 13, [])
    samples.append((residue_field_module(r2), r2))
    for mod, ring in samples:
        est = complexity_estimate(mod, 5)
        assert est["classification"] == "pd-finite"
        assert depth(mod) + est["pd"] == depth(free_module(ring, (0,)))
    # grade equals codimension on Cohen-Macaulay catalog modules
    cm = [(cusp_m, cusp), (residue_field_module(cusp), cusp),
          (quotient_module(threefold, [parse_polynomial(amb3, "x"),
                                       parse_polynomial(amb3, "z")]),
           threefold),
          (surface_mcm, surface)]
    for mod, ring in cm:
        assert grade(mod) == ring.dim - mod.krull_dim()
    # torsion algorithms agree on every one-dimensional catalog module
    for ring in (cusp, fermat_dim1):
        amb = ring.ambient
        m = ideal_module(ring, [parse_polynomial(amb, "x"),
                                parse_polynomial(amb, "y")])
        for mod in (m, tensor(m, dual(m)),
                    quotient_module(ring, [parse_polynomial(amb, "x")])):
            t1, _ = torsion_submodule(mod, "saturation")
            t2, _ = torsion_submodule(mod, "biduality")
            assert t1.length() == t2.length()
    # Betti numbers do not depend on the monomial order
    for order in ("grevlex", "lex"):
        ring = define_ring(["x", "y"], [3, 2], 7, ["x^2 - y^3"],
                           order=order, domain=True)
        amb = ring.ambient
        m = ideal_module(ring, [parse_polynomial(amb, "x"),
                                parse_polynomial(amb, "y")])
        assert betti_numbers(m, 6) == [2] * 7
        ring3 = define_ring(["x", "y", "z", "w"], [1, 1, 1, 1], 101,
                            ["x*w - y*z"], order=order, domain=True)
        m3 = quotient_module(ring3, [parse_polynomial(ring3.ambient, "x"),
                                     parse_polynomial(ring3.ambient, "z")])
        assert betti_numbers(m3, 5) == [1, 2, 2, 2, 2, 2]
    report("7/8 depth formula, grade = codim, torsion agreement, "
           "order-independent Betti numbers", time.time() - started, 120)


def test_8_even_dimension_torsion(surface_mcm):
    started = time.time()
    out = even_dim_torsion_check(surface_mcm)
    assert out["verdict"] == "TORSION_PRESENT"
    assert out["torsion_length"] >= 1
    report("8/8 even-dimensional quadric: torsion in M (x) M*",
           time.time() - started, 60)
