"""The one memo mechanism: ``ring.memoized`` keeps derived data on its owner.

A value is computed once per owner and arguments, lives exactly as long as
the owner, and is never shared between equal owners built apart.  No value
refers back to its owner, so rings and modules are freed by reference
counting alone, without the cyclic collector.
"""

import gc
import weakref

from conftest import GP_IDEAL, gp_matrix_cols, poly
from test_bench_checks import REPO, WORKLOADS, _Pass

from hwprobe import (
    PresentedModule,
    define_ring,
    dual,
    hw_check,
    ideal_module,
    quotient_module,
    tensor,
    theta,
    tor_length,
    torsion_submodule,
)
from hwprobe import groebner, homalg, jobs, modules
from hwprobe.catalog import catalog, catalog_names
from hwprobe.quotient import QuotientRing
from hwprobe.resolution import betti_numbers
from hwprobe.ring import memoized


class Owner:
    pass


def test_memoized_keys_by_owner_and_arguments():
    calls = []

    @memoized
    def value(owner, x):
        calls.append(x)
        return None if x else 0

    a, b = Owner(), Owner()
    # None is a value like any other, so it is kept and not recomputed
    assert [value(a, 1), value(a, 1), value(a, 0), value(b, 1)] == \
        [None, None, 0, None]
    assert calls == [1, 0, 1]


def counting_groebner_basis(monkeypatch):
    calls = []
    groebner_basis = modules.groebner_basis

    def counting(*args):
        calls.append(args)
        return groebner_basis(*args)

    monkeypatch.setattr(modules, "groebner_basis", counting)
    return calls


def test_rel_gb_and_its_initial_module_are_computed_once(cusp, monkeypatch):
    m = quotient_module(cusp, [poly(cusp, "x")])
    calls = counting_groebner_basis(monkeypatch)
    gb = m.rel_gb()
    assert m.rel_gb() is gb
    assert m.hilbert_numerator() is m.hilbert_numerator()
    assert m.krull_dim() == 0 and m.length() == 3
    assert len(calls) == 1
    assert gb.initial_module() is gb.initial_module()


def test_saturation_torsion_reuses_the_relation_basis(cusp, cusp_m,
                                                      monkeypatch):
    # saturate's first membership test and subquotient's basis of B are the
    # basis of <rels> + I*F that m.rel_gb() memoizes; neither is rebuilt
    m = tensor(cusp_m, dual(cusp_m))
    gb = m.rel_gb()
    calls = []
    groebner_basis = groebner.groebner_basis

    def counting(ring, gens, twists):
        calls.append((list(gens), twists))
        return groebner_basis(ring, gens, twists)

    for owner in (groebner, modules):
        monkeypatch.setattr(owner, "groebner_basis", counting)
    t, _ = torsion_submodule(m, "saturation")
    assert t.length() == 2 and m.rel_gb() is gb
    assert calls and (list(m.rels), m.twists) not in calls


def test_hw_check_builds_m_star_once(cusp, monkeypatch):
    # M (x) M* and the Tate cross-check share the memoized dual
    m = ideal_module(cusp, [poly(cusp, "x"), poly(cusp, "y")])
    built = []
    hom = homalg.hom

    def counting(a, b):
        built.append(a)
        return hom(a, b)

    monkeypatch.setattr(homalg, "hom", counting)
    assert "tate_tor0_length" in hw_check(m)
    assert built == [m]
    assert dual(m) is dual(m)
    assert built == [m]


def test_equal_owners_built_apart_share_nothing(cusp, monkeypatch):
    a = quotient_module(cusp, [poly(cusp, "x")])
    b = quotient_module(cusp, [poly(cusp, "x")])
    calls = counting_groebner_basis(monkeypatch)
    assert a.rel_gb() is not b.rel_gb()
    assert len(calls) == 2
    r1 = define_ring(["x", "y"], [3, 2], 7, ["x^2 - y^3"])
    r2 = define_ring(["x", "y"], [3, 2], 7, ["x^2 - y^3"])
    assert r1.ambient == r2.ambient
    assert r1.ambient.monomials_of_degree(6) is r1.ambient.monomials_of_degree(6)
    assert r1.ambient.monomials_of_degree(6) is not \
        r2.ambient.monomials_of_degree(6)


def test_memoized_values_die_with_their_owner(cusp):
    m = quotient_module(cusp, [poly(cusp, "x")])
    gb = weakref.ref(m.rel_gb())
    del m
    gc.collect()
    assert gb() is None


def test_std_table_of_n_is_built_once_across_tor_lengths(gp_ring, monkeypatch):
    n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    calls = []
    std_monomials = homalg.std_monomials

    def counting(ring, gens):
        calls.append(gens)
        return std_monomials(ring, gens)

    monkeypatch.setattr(homalg, "std_monomials", counting)
    assert [tor_length(n, n, i) for i in range(1, 9)] == [10] * 8
    # one table per component of N, for all eight lengths
    assert len(calls) == n.ngens


def test_theta_checks_its_hypotheses_once_per_module(threefold, monkeypatch):
    m = quotient_module(threefold, [poly(threefold, "x"), poly(threefold, "z")])
    n = quotient_module(threefold, [poly(threefold, "x"), poly(threefold, "y")])
    calls = []
    nonfree_locus_dim = PresentedModule.nonfree_locus_dim

    def counting(module):
        calls.append(module)
        return nonfree_locus_dim(module)

    monkeypatch.setattr(PresentedModule, "nonfree_locus_dim", counting)
    assert theta(m, n).value == theta(m, n).value == -1
    assert calls == [m]


def test_passes_leave_no_ring_alive_without_the_collector(monkeypatch):
    # a resolve-deep pass (Betti numbers of k over the Gasharov-Peeva ring),
    # a seed-0 pass of the benchmark's functors workload (Tor, Ext and Tate
    # lengths over that ring) and each catalog job, with gc disabled: every
    # ring they build is gone as soon as the last outside reference is
    rings = []
    init = QuotientRing.__init__

    def recording(self, *args, **kwargs):
        rings.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuotientRing, "__init__", recording)

    def resolve_deep():
        gp = define_ring(["x1", "x2", "x3", "x4"], [1] * 4, 5, GP_IDEAL)
        assert betti_numbers(modules.residue_field_module(gp), 5) == \
            [1, 4, 13, 40, 121, 364]

    gc.collect()
    gc.disable()
    try:
        resolve_deep()
        assert rings and [r() for r in rings] == [None] * len(rings)
        del rings[:]
        WORKLOADS["functors"](0, REPO).run_pass(_Pass())
        assert rings and [r() for r in rings] == [None] * len(rings)
        for name in catalog_names():
            del rings[:]
            jobs.run_job(catalog(name), 0)
            assert rings, name
            assert [r() for r in rings] == [None] * len(rings), name
    finally:
        gc.enable()
