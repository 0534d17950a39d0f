"""The Artinian paths (dim R = 0) and the length identity against routes
they do not use.

The strand path of Resolution is checked against

* a Groebner reference built here from ``syzygies_over_quotient`` and
  ``reference_minimal_generators`` (the package's earlier monomial-product
  minimality test, kept in ``conftest``), compared on graded Betti tables;
* for the Koszul ring GP, the Poincare series 1/H_R(-t) (Froberg), from the
  ring's own Hilbert numerator;
* the Betti-Hilbert identity sum (-1)^i beta_i(t) H_R(t) = H_M(t) below the
  lowest twist of the first level left out.

``length_at`` (Tor, Ext and Tate lengths from cokernel sizes: F_p ranks over
an Artinian ring, Hilbert numerators otherwise) is checked against the
lengths of the cycle data that ``homology_length`` finishes with Groebner
bases, the reference, over Artinian rings and over curves, surfaces and a
threefold, on resolutions, Koszul complexes and complete resolutions; in
every dimension it builds no cycle data.

The modules of ``module_at`` (Hom, Tor, Ext and Tate modules built degree
by degree) are checked against the cycle-data modules that ``subquotient``
presents, the dim > 0 path, run with ``reference_minimal_generators`` in
place of the package's: an isomorphism certificate that passes its own
check, equal Hilbert functions and lengths, and a presentation that
normalizing does not shrink.

``minimal_generators`` itself, the strand test in any dimension, is checked
to keep exactly the vectors the reference keeps, over curves in dimension 1.

The Hom side, the tensor side of ``DualComplex`` (the transposed complex),
is checked item for item against the package's earlier block layout,
``reference_hom_maps`` in ``conftest``.

``Blocks.minimal_kernel``, which skips the images above the target's top
degree and stops the strand test once the span fills the kernel, is checked
to return the vectors of the package's earlier routine, in the same order,
at every call a resolution and its Tor and Ext modules make.
``Blocks.image``, the nonzero spans of the loop that ``Blocks.rank`` reads,
is another echelon basis of the space the earlier row loop spans, with the
same pivots.
"""

import random
import sys
from collections import Counter
from unittest.mock import patch

from conftest import (
    GP_IDEAL,
    gp_matrix_cols,
    hom_cycle_data,
    reference_hom_maps,
    reference_image,
    reference_minimal_generators,
    reference_minimal_kernel,
    reference_rank,
    tensor_cycle_data,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import (
    ISO,
    PolyRing,
    PresentedModule,
    complete_resolution,
    define_ring,
    depth,
    dual,
    ext,
    free_module,
    hom,
    ideal_module,
    is_isomorphic,
    parse_polynomial,
    quotient_module,
    residue_field_module,
    syzygy_module,
    tate_ext,
    tate_ext_length,
    tate_tor,
    tate_tor_length,
    tor,
    tor_length,
    transpose,
    verify_short_exact,
)
from hwprobe.freemod import (
    row_insert,
    transpose_cols,
    unpack_term,
    vec_component,
    vec_degree,
)
from hwprobe import freemod, groebner, homalg, modules, resolution
from hwprobe.groebner import (
    GroebnerBasis,
    groebner_basis,
    kernel_into_quotient,
    minimal_generators,
    syzygies_over_quotient,
    vec_nf_ideal,
)
from hwprobe.hilbert import (
    hilbert_numerator,
    series_coefficients,
    series_total_if_finite,
    tpoly_add,
    tpoly_sub,
)
from hwprobe.homalg import (
    DualComplex,
    KoszulComplex,
    _module_blocks,
    ext_is_zero,
    length_at,
    module_at,
    tensor_maps,
)
from hwprobe.modules import (
    _tensor_twists,
    homology_length,
    subquotient,
)
from hwprobe.resolution import Resolution, resolution_of
from hwprobe.theta import random_short_exact_sequence


def reference_length(ring, data):
    """Length of Z/B from cycle data; None when infinite."""
    return 0 if data is None else homology_length(ring, *data)


def betti_table(levels):
    return Counter((i, a) for i, twists in enumerate(levels) for a in twists)


def groebner_levels(module, window):
    """Generator degrees of F_0..F_window by tracked syzygies over R."""
    ring = module.ring
    amb = ring.ambient
    cols = list(module.rels)
    levels = [module.twists, tuple(vec_degree(amb, c, module.twists) for c in cols)]
    while len(levels) <= window:
        if cols:
            syz = syzygies_over_quotient(ring, cols, levels[-2])
            cols = reference_minimal_generators(ring, syz, levels[-1])
        levels.append(tuple(vec_degree(amb, c, levels[-1]) for c in cols))
    return levels


def strand_resolution(module, window):
    assert module.ring.dim == 0
    res = Resolution(module)
    res.extend(window)
    return res


def gp_n(gp_ring):
    return PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))


def test_gp_modules_match_groebner_reference(gp_ring):
    for module in (residue_field_module(gp_ring), gp_n(gp_ring)):
        res = strand_resolution(module, 4)
        assert betti_table(res.level_twists) == betti_table(groebner_levels(module, 4))
        assert res.verify(3)
        assert res.is_minimal()


def test_gp_residue_field_is_koszul_up_to_level_7(gp_ring):
    # Froberg: over a Koszul algebra P_k(t) = 1 / H_R(-t), with H_R read from
    # the initial ideal, never from the resolution
    amb = gp_ring.ambient
    h = series_coefficients(amb, hilbert_numerator(amb, gp_ring._initial_ideal),
                            0, 7)
    assert h[:4] == [1, 4, 3, 0]
    h_neg = [(-1) ** j * c for j, c in enumerate(h)]
    inv = [1]
    for i in range(1, 8):
        inv.append(-sum(h_neg[j] * inv[i - j] for j in range(1, i + 1)))
    res = strand_resolution(residue_field_module(gp_ring), 7)
    assert res.betti_numbers(7) == inv
    assert inv[7] == 3280
    # k has a linear resolution: F_i is generated in degree i
    assert all(set(res.twists_at(i)) == {i} for i in range(8))
    assert res.is_minimal()


def random_form(data, amb, deg):
    monos = amb.monomials_of_degree(deg)
    coeffs = data.draw(st.lists(st.integers(0, amb.p - 1), min_size=len(monos),
                                max_size=len(monos)))
    return {m: c for m, c in zip(monos, coeffs) if c}


def random_artinian_module(data, ring=None):
    """A random presentation over F_p[x,y,z]/(x^2, y^2, z^2, random forms).

    The extra forms have degree 2, which makes them quadrics under the
    standard grading.  A ring passed in is used as it is, so that several
    modules can be drawn over one ring.
    """
    if ring is None:
        p = data.draw(st.sampled_from([3, 5, 101]))
        weights = data.draw(st.sampled_from([(1, 1, 1), (1, 2, 1), (2, 1, 3)]))
        amb = PolyRing(["x", "y", "z"], weights, p)
        extra = [random_form(data, amb, 2)
                 for _ in range(data.draw(st.integers(0, 2)))]
        ring = define_ring(["x", "y", "z"], weights, p,
                           ["x^2", "y^2", "z^2"] + [q for q in extra if q])
    amb = ring.ambient
    twists = tuple(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))
    cols = []
    for _ in range(data.draw(st.integers(1, 3))):
        d = max(twists) + 1
        cols.append({(j, m): c for j, a in enumerate(twists)
                     for m, c in random_form(data, amb, d - a).items()})
    return PresentedModule(ring, twists, cols)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_artinian_presentations_match_groebner_reference(data):
    module = random_artinian_module(data)
    res = strand_resolution(module, 4)
    assert betti_table(res.level_twists) == betti_table(groebner_levels(module, 4))
    assert res.verify(3)
    assert res.is_minimal()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_betti_hilbert_identity_on_random_presentations(data):
    module = random_artinian_module(data)
    ring = module.ring
    amb = ring.ambient
    window = 4
    res = strand_resolution(module, window + 1)
    left_out = res.twists_at(window + 1)
    lo = min(module.twists)
    hi = min(left_out) - 1 if left_out else lo + 8
    h_r = series_coefficients(amb, hilbert_numerator(amb, ring._initial_ideal),
                              0, hi - lo)
    total = [0] * (hi - lo + 1)
    for i in range(window + 1):
        for a in res.twists_at(i):
            for d in range(a, hi + 1):
                total[d - lo] += (-1) ** i * h_r[d - a]
    assert total == module.hilbert_function(lo, hi)


# -- lengths from ranks ------------------------------------------------------


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_lengths_match_groebner_reference(data):
    m = random_artinian_module(data)
    ring = m.ring
    n = random_artinian_module(data, ring)
    res = resolution_of(m, 4)
    for i in range(4):
        assert length_at(res, n, i) == \
            reference_length(ring, tensor_cycle_data(res, n, i))
        assert length_at(DualComplex(res), n, -i) == \
            reference_length(ring, hom_cycle_data(res, n, i))


def test_gp_tate_lengths_match_groebner_reference(gp_ring):
    n = gp_n(gp_ring)
    cr = complete_resolution(n, 4, window=4)
    for i in range(-4, 5):
        assert length_at(cr, n, i) == \
            reference_length(gp_ring, tensor_cycle_data(cr, n, i))
        assert length_at(DualComplex(cr), n, -i) == \
            reference_length(gp_ring, hom_cycle_data(cr, n, i))


# the cusp, the surface, the threefold and A = k[t^3, t^4, t^5], which is
# not a hypersurface; each hypersurface with an ideal that is an MCM module
# without free summands, for its complete resolution
POSITIVE_DIM = [
    (["x", "y"], [3, 2], 7, ["x^2 - y^3"], ["x", "y"]),
    (["x", "y", "z"], [1, 1, 1], 101, ["x*z - y^2"], ["x", "y"]),
    (["x", "y", "z", "w"], [1, 1, 1, 1], 101, ["x*w - y*z"], ["x", "z"]),
    (["x", "y", "z"], [3, 4, 5], 101,
     ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"], None),
]


def positive_dim_case(spec):
    names, weights, p, eqs, mcm = spec
    ring = define_ring(names, weights, p, eqs)
    if mcm is None:
        return ring, None
    return ring, ideal_module(ring, [parse_polynomial(ring.ambient, g)
                                     for g in mcm])


def random_module(data, ring, rels=(0, 2)):
    """A random presentation on one or two generators, with between
    ``rels[0]`` and ``rels[1]`` relations before zero ones are dropped."""
    amb = ring.ambient
    top = max(amb.weights)
    twists = tuple(data.draw(st.lists(st.integers(0, top), min_size=1,
                                      max_size=2)))
    cols = [random_vector(data, amb, twists,
                          max(twists) + data.draw(st.integers(1, top)))
            for _ in range(data.draw(st.integers(*rels)))]
    return PresentedModule(ring, twists, [c for c in cols if c])


def assert_lengths_match_reference(cx, n, indices):
    ring = n.ring
    for i in indices:
        assert length_at(cx, n, i) == \
            reference_length(ring, tensor_cycle_data(cx, n, i))
        assert length_at(DualComplex(cx), n, -i) == \
            reference_length(ring, hom_cycle_data(cx, n, i))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_lengths_from_sizes_match_cycle_data_in_positive_dimension(data):
    ring, mcm = positive_dim_case(data.draw(st.sampled_from(POSITIVE_DIM)))
    m, n = random_module(data, ring), random_module(data, ring)
    assert_lengths_match_reference(resolution_of(m, 3), n, range(3))
    assert_lengths_match_reference(KoszulComplex(ring), n,
                                   range(ring.ambient.nvars + 1))
    if mcm is not None:
        cr = complete_resolution(mcm, 2, window=2)
        assert_lengths_match_reference(cr, n, range(-2, 3))


def assert_betti_hilbert_identity(m):
    # 0 -> Omega^4 M -> F_3 -> ... -> F_0 -> M -> 0 is exact, so
    # HS(M) = sum_{i <= 3} (-1)^i HS(F_i) + HS(Omega^4 M), numerators over
    # one denominator; Omega^4 M is presented by d_5
    res = resolution_of(m, 5)
    assert res.verify(3)
    numer = syzygy_module(m, 4).hilbert_numerator()
    for i in range(4):
        step = free_module(m.ring, res.twists_at(i)).hilbert_numerator()
        numer = (tpoly_add if i % 2 == 0 else tpoly_sub)(numer, step)
    assert numer == m.hilbert_numerator()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_betti_hilbert_identity_in_positive_dimension(data):
    # over the cusp and A
    ring, _ = positive_dim_case(data.draw(st.sampled_from(
        [POSITIVE_DIM[0], POSITIVE_DIM[3]])))
    assert_betti_hilbert_identity(random_module(data, ring, rels=(2, 3)))


def test_betti_hilbert_identity_over_a():
    # k, m and (x, y) over A = k[t^3, t^4, t^5]
    ring, _ = positive_dim_case(POSITIVE_DIM[3])
    amb = ring.ambient
    for m in (residue_field_module(ring), ideal_module(ring, ring.variables()),
              ideal_module(ring, [parse_polynomial(amb, "x"),
                                  parse_polynomial(amb, "y")])):
        assert_betti_hilbert_identity(m)


def test_infinite_lengths_match_cycle_data():
    # over k[x, y, z]/(xy), R/(x) has infinite Tor and Tate lengths against
    # itself; infinite is None on both paths
    r = define_ring(["x", "y", "z"], [1, 1, 1], 7, ["x*y"])
    m = quotient_module(r, [parse_polynomial(r.ambient, "x")])
    cr = complete_resolution(m, 2, window=2)
    for cx, indices in ((resolution_of(m, 3), range(3)), (cr, range(-2, 3))):
        assert_lengths_match_reference(cx, m, indices)
        assert None in [length_at(cx, m, i) for i in indices]
        assert None in [length_at(DualComplex(cx), m, -i) for i in indices]


# -- modules degree by degree ------------------------------------------------


def cycle_data_module(ring, data):
    """The reference: Z/B from cycle data, presented by ``subquotient`` with
    the reference minimality test."""
    if data is None:
        return PresentedModule(ring, (), ())
    with patch.object(modules, "minimal_generators",
                      reference_minimal_generators):
        return subquotient(ring, *data)[0]


def assert_matches_reference(new, ref):
    ring = new.ring
    cert = is_isomorphic(new, ref)
    assert cert.verdict == ISO
    if new.ngens:
        assert cert.certificate.check()
    twists = new.twists + ref.twists
    if twists:
        lo, hi = min(twists), max(twists) + 4 * len(ring.ambient.weights)
        h = new.hilbert_function(lo, hi)
        assert h == ref.hilbert_function(lo, hi)
        # the window holds every nonzero degree
        assert sum(h) == ref.length()
    assert new.length() == ref.length()
    # minimal by construction: normalizing removes no generator or relation
    again = PresentedModule(ring, new.twists, new.rels)
    assert (again.ngens, len(again.rels)) == (new.ngens, len(new.rels))


def test_gp_tor_and_ext_modules_match_cycle_data(gp_ring):
    n = gp_n(gp_ring)
    for other in (n, residue_field_module(gp_ring)):
        for i in range(1, 6):
            res = resolution_of(n, i + 1)
            assert_matches_reference(
                tor(n, other, i),
                cycle_data_module(gp_ring, tensor_cycle_data(res, other, i)))
            assert_matches_reference(
                ext(n, other, i),
                cycle_data_module(gp_ring, hom_cycle_data(res, other, i)))


def test_gp_tate_modules_match_cycle_data(gp_ring):
    n = gp_n(gp_ring)
    cr = complete_resolution(n, 4, window=4)
    for i in range(-4, 5):
        t = tate_tor(cr, n, i)
        assert_matches_reference(
            t, cycle_data_module(gp_ring, tensor_cycle_data(cr, n, i)))
        assert t.length() == tate_tor_length(cr, n, i)
        e = tate_ext(cr, n, i)
        assert_matches_reference(
            e, cycle_data_module(gp_ring, hom_cycle_data(cr, n, i)))
        assert e.length() == tate_ext_length(cr, n, i)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_artinian_modules_match_cycle_data(data):
    m = random_artinian_module(data)
    ring = m.ring
    n = random_artinian_module(data, ring)
    res = resolution_of(m, 4)
    for i in range(4):
        for cx, j, build in ((res, i, tensor_cycle_data),
                             (DualComplex(res), -i, hom_cycle_data)):
            new, _ = module_at(cx, n, j)
            assert_matches_reference(
                new, cycle_data_module(ring, build(res, n, i)))
            assert new.length() == length_at(cx, n, j)


def count_cycle_data_calls(monkeypatch):
    """Record every call of the cycle-data routines; returns the list."""
    calls = []
    for orig in (kernel_into_quotient, homology_length, subquotient):
        def counting(*args, orig=orig):
            calls.append(orig.__name__)
            return orig(*args)

        # modules bind each other's functions by name, so patch every binding
        for name, mod in list(sys.modules.items()):
            if name.startswith("hwprobe.") and getattr(mod, orig.__name__,
                                                       None) is orig:
                monkeypatch.setattr(mod, orig.__name__, counting)
    return calls


def test_artinian_lengths_build_no_cycle_data(gp_ring, monkeypatch):
    n = gp_n(gp_ring)
    k = residue_field_module(gp_ring)
    cr = complete_resolution(n, 4, window=2)
    calls = count_cycle_data_calls(monkeypatch)
    lengths = [tor_length(n, k, i) for i in range(1, 4)]
    lengths += [tate_tor_length(cr, n, i) for i in range(-2, 3)]
    assert lengths[:3] == [2, 2, 2]
    modules = [f(n, other, i) for f in (tor, ext) for other in (n, k)
               for i in range(1, 4)]
    modules += [f(cr, n, i) for f in (tate_tor, tate_ext) for i in range(-2, 3)]
    assert [mod.length() for mod in modules[9:12]] == [2, 2, 2]  # Ext(N, k)
    assert calls == []


def test_sizes_build_no_cycles_in_positive_dimension(cusp, cusp_m,
                                                    threefold_mn, monkeypatch):
    # lengths, vanishing, depth, total acyclicity and exactness read sizes;
    # only the resolutions themselves, built first, run a tracked syzygy
    m, n = threefold_mn
    resolution_of(m, 5)
    cr = complete_resolution(cusp_m, 2, window=2)
    f, g = random_short_exact_sequence(n, random.Random(3))
    calls = count_cycle_data_calls(monkeypatch)
    assert [tor_length(m, n, i) for i in range(1, 5)] == [1, 0, 1, 0]
    assert [ext_is_zero(m, n, i) for i in range(3)] == [True, False, True]
    assert depth(m) == depth(cusp_m) + 1 == 2
    assert cr.verify(3)
    assert f.is_injective() and g.is_surjective()
    assert verify_short_exact(f, g) == (True, "exact")
    assert calls == []


def test_strand_frame_divides_each_term_once(gp_ring, monkeypatch):
    # the Tor and Ext calls of one pass of the benchmark's functors workload:
    # every row of the strand frame comes from a memoized table, so each
    # Groebner division is of one term x^t * e_k, and none is repeated
    n = gp_n(gp_ring)
    k = residue_field_module(gp_ring)
    divided = []
    real = GroebnerBasis.normal_form

    def counting(basis, v):
        divided.append((basis, *v.items()))
        return real(basis, v)

    monkeypatch.setattr(GroebnerBasis, "normal_form", counting)
    for i in range(1, 13):
        assert tor_length(n, k, i) == 2
        tor_length(n, n, i)
    for i in range(1, 9):
        assert ext(n, k, i).length() == 2
        ext(n, n, i).length()
    assert divided
    assert all(len(call) == 2 and call[1][1] == 1 for call in divided)
    assert len(set(divided)) == len(divided)


# -- Hom is Ext^0 --------------------------------------------------------------


def test_artinian_hom_builds_no_cycle_data(gp_ring, monkeypatch):
    n = gp_n(gp_ring)
    r = define_ring(["x", "y"], [1, 1], 7, ["x^2", "y^2"])
    x = r.variables()[0]
    m = quotient_module(r, [x])
    calls = count_cycle_data_calls(monkeypatch)
    hom(n, n), dual(n)
    md = dual(m)
    assert calls == []
    # Hom(R/(x), R) is the annihilator of x, the ideal (x) of length 2
    assert md.length() == 2


def test_gp_hom_and_dual_match_cycle_data(gp_ring):
    n = gp_n(gp_ring)
    res = resolution_of(n, 1)
    r1 = free_module(gp_ring, (0,))
    assert_matches_reference(
        hom(n, n), cycle_data_module(gp_ring, hom_cycle_data(res, n, 0)))
    assert_matches_reference(
        dual(n), cycle_data_module(gp_ring, hom_cycle_data(res, r1, 0)))


# -- Hom as the tensor side of the dual complex -------------------------------


def assert_hom_layout_matches_reference(cx, n, indices):
    for i in indices:
        new = tensor_maps(DualComplex(cx), n, -i)
        ref = reference_hom_maps(cx, n, i)
        if ref is None:
            assert new is None
            continue
        f_i, f_out, outgoing, incoming, twists = ref
        assert len(new) == 4
        assert _tensor_twists(new[0], n) == twists(f_i, n)
        assert _tensor_twists(new[1], n) == twists(f_out, n)
        for cols, ref_cols in ((new[2], outgoing), (new[3], incoming)):
            assert [list(c.items()) for c in cols] == \
                [list(c.items()) for c in ref_cols]


GP_RING = define_ring(["x1", "x2", "x3", "x4"], [1, 1, 1, 1], 5, GP_IDEAL)
# (ring, a module with a complete resolution, its period); A has none
HOM_LAYOUT_CASES = [(*positive_dim_case(POSITIVE_DIM[0]), 2),
                    (*positive_dim_case(POSITIVE_DIM[3]), None),
                    (GP_RING, gp_n(GP_RING), 4)]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_hom_layout_matches_the_reference(data):
    # over the cusp, A and GP: resolutions, Koszul complexes and complete
    # resolutions at negative and positive indices
    for ring, periodic, q in HOM_LAYOUT_CASES:
        cx = q and complete_resolution(periodic, q, window=2)
        m = random_module(data, ring, rels=(2, 3))
        n = random_module(data, ring)
        assert_hom_layout_matches_reference(resolution_of(m, 3), n,
                                            range(-1, 4))
        assert_hom_layout_matches_reference(KoszulComplex(ring), n,
                                            range(-1, ring.ambient.nvars + 2))
        if cx is not None:
            assert_hom_layout_matches_reference(cx, n, range(-3, 4))
        # the Auslander transpose reads the column loop it replaced
        old = [{(i, mono): c for i, rel in enumerate(m.rels)
                for mono, c in vec_component(rel, j).items()}
               for j in range(m.ngens)]
        assert [list(c.items()) for c in transpose_cols(m.rels, m.ngens)] \
            == [list(c.items()) for c in old]
        tr = transpose(m)
        ref = PresentedModule(ring, tr.twists, old)
        assert (tr.twists, list(tr.rels)) == (ref.twists, list(ref.rels))


# -- the strand step stops where the answer is known --------------------------


# GP, k[x, y]/(x^2, y^2) and a weighted ring whose socle x^3 = y^2 sits in
# degree 6
STRAND_RINGS = [GP_RING,
                define_ring(["x", "y"], [1, 1], 7, ["x^2", "y^2"]),
                define_ring(["x", "y"], [2, 3], 7, ["x^3 - y^2", "x*y"])]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_minimal_kernel_matches_the_reference(data):
    # every strand step of a resolution and of the Tor and Ext modules
    # against it: plain, modulo boundaries in the source (the generators of
    # Z/B) and modulo boundaries in the target (its relations)
    ring = data.draw(st.sampled_from(STRAND_RINGS))
    m = random_module(data, ring, rels=(1, 3))
    n = random_module(data, ring)
    real = modules.Blocks.minimal_kernel
    kinds = Counter()
    nvars = ring.ambient.nvars

    def unpack(vectors):
        return [{unpack_term(t, nvars): c for t, c in v.items()}
                for v in vectors]

    def checked(blocks, twists, cols, target, target_twists, **mods):
        # the real step takes and returns packed vectors, the reference
        # tuple-keyed ones
        packed, degrees = real(blocks, twists, cols, target, target_twists,
                               **mods)
        got = unpack(packed)
        ref = reference_minimal_kernel(blocks, twists, unpack(cols), target,
                                       **mods)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in ref]
        # each vector's degree is the one the step kept it in
        assert degrees == tuple(vec_degree(ring.ambient, v, twists) for v in got)
        kinds[tuple(sorted(mods))] += 1
        return packed, degrees

    with patch.object(modules.Blocks, "minimal_kernel", checked):
        res = resolution_of(m, 4)
        for i in range(3):
            module_at(res, n, i)
            module_at(DualComplex(res), n, -i)
    assert set(kinds) == {("source_mod",), ("target_mod",)} | (
        {()} if m.rels else set())


def test_strand_steps_read_degrees_from_the_step(gp_ring, monkeypatch):
    # an Artinian resolution and a strand module take each generator's
    # degree from the step that kept it; the only vectors scanned for a
    # degree are the relations a presentation checks for homogeneity
    k = residue_field_module(gp_ring)
    res, res_n = Resolution(k), resolution_of(gp_n(gp_ring), 4)
    calls = []
    real = freemod.vec_degree

    def counting(ring, v, twists):
        calls.append(v)
        return real(ring, v, twists)

    for owner in (freemod, groebner, modules, resolution, homalg):
        if hasattr(owner, "vec_degree"):
            monkeypatch.setattr(owner, "vec_degree", counting)
    assert res.extend(6).betti_numbers(6) == [1, 4, 13, 40, 121, 364, 1093]
    assert calls == []
    for cx, i in ((res_n, 2), (DualComplex(res_n), -2)):
        mod, _ = module_at(cx, k, i)
        assert mod.ngens and calls == list(mod.rels)
        calls.clear()


def recording(monkeypatch, fn, arg):
    """Record argument ``arg`` of every call of ``fn``, through every
    binding of it in the package; returns the list."""
    calls = []

    def counting(*args):
        calls.append(args[arg])
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hwprobe.") and getattr(mod, fn.__name__,
                                                   None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counting)
    return calls


def test_strand_frame_packs_each_vector_once(gp_ring, monkeypatch):
    # an Artinian resolution packs the columns of d_1 as they enter the
    # frame and hands each later level on packed; a strand module's
    # relations leave the frame reduced mod I, so it makes no normal form
    k = residue_field_module(gp_ring)
    res_n = resolution_of(gp_n(gp_ring), 4)
    # the frame's table rows, memoized on R and on k, are packed here
    resolution_of(k, 6)
    module_at(res_n, k, 2)
    packed = recording(monkeypatch, freemod.pack_vec, 0)
    res = Resolution(k).extend(6)
    assert res.betti_numbers(6) == [1, 4, 13, 40, 121, 364, 1093]
    assert packed == res.diffs[0]
    reduced = recording(monkeypatch, groebner.vec_nf_ideal, 1)
    mod, _ = module_at(res_n, k, 2)
    assert mod.ngens and reduced == []


# -- ranks from spans -----------------------------------------------------------


def assert_rank_and_image_match_reference(blocks, cols, twists):
    # the image's spans are another echelon basis of the reference's space:
    # in every degree the same pivot keys, every reference row reduces to
    # zero against the new pivots, and every new row is monic at its key
    assert blocks.rank(cols, twists) == reference_rank(blocks, cols)
    image = blocks.image(cols, twists)
    ref = reference_image(blocks, cols, twists)
    assert {d: set(pivots) for d, pivots in image.items()} == \
        {d: set(pivots) for d, pivots in ref.items()}
    p = blocks.ring.p
    for d, pivots in image.items():
        assert all(row_insert(dict(row), dict(pivots), None, p) is None
                   for row in ref[d].values())
        assert all(max(row) == key and row[key] == 1
                   for key, row in pivots.items())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_ranks_and_images_match_the_reference(data):
    # into free sums: random homogeneous columns and target twists, and the
    # length of their cokernel; into sums of copies of N: every map of the
    # Tor and Hom sides of a resolution
    ring = data.draw(st.sampled_from(STRAND_RINGS))
    amb = ring.ambient
    top = max(amb.weights)
    free = modules.ring_blocks(ring)
    twists = tuple(data.draw(st.lists(st.integers(-top, top), min_size=1,
                                      max_size=3)))
    cols = [random_vector(data, amb, twists,
                          min(twists) + data.draw(st.integers(0, 3 * top)))
            for _ in range(data.draw(st.integers(0, 4)))]
    assert_rank_and_image_match_reference(free, cols, twists)
    # normalize=False takes relations reduced mod I, as every caller has them
    m = PresentedModule(ring, twists, [vec_nf_ideal(ring, c) for c in cols],
                        normalize=False)
    assert m.length() == free.dim(m.ngens) - reference_rank(free, m.rels) \
        == series_total_if_finite(amb, m.hilbert_numerator())
    n = random_module(data, ring)
    blocks = _module_blocks(n)
    res = resolution_of(random_module(data, ring, rels=(1, 3)), 3)
    for i in range(3):
        for cx, j in ((res, i), (DualComplex(res), -i)):
            maps = tensor_maps(cx, n, j)
            if maps is None:
                continue
            f_i, f_out, outgoing, incoming = maps
            assert_rank_and_image_match_reference(
                blocks, outgoing, _tensor_twists(f_out, n))
            assert_rank_and_image_match_reference(
                blocks, incoming, _tensor_twists(f_i, n))


# -- one minimality test in every dimension ------------------------------------


CURVES = [
    # the cusp, A = k[t^3, t^4, t^5] and B = k[t^4, t^5, t^6]
    (["x", "y"], [3, 2], 7, ["x^2 - y^3"]),
    (["x", "y", "z"], [3, 4, 5], 101, ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"]),
    (["x", "y", "z"], [4, 5, 6], 101, ["y^2 - x*z", "z^2 - x^3"]),
]
CURVE_RINGS = [define_ring(*spec, order=order) for spec in CURVES
               for order in ("grevlex", "lex")]


def random_vector(data, amb, twists, d):
    """A random homogeneous vector of degree d, possibly zero."""
    v = {}
    for j, a in enumerate(twists):
        if d >= a:
            for m, c in random_form(data, amb, d - a).items():
                v[(j, m)] = c
    return v


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_minimal_generators_keep_what_the_reference_keeps(data):
    ring = data.draw(st.sampled_from(CURVE_RINGS))
    amb = ring.ambient
    top = max(amb.weights)
    twists = tuple(data.draw(st.lists(st.integers(0, top), min_size=1,
                                      max_size=2)))
    lo = max(twists)
    vectors = [random_vector(data, amb, twists, lo + data.draw(st.integers(0, 2 * top)))
               for _ in range(data.draw(st.integers(1, 5)))]
    # redundant ones too: monomial multiples and sums of the first ones
    for _ in range(data.draw(st.integers(0, 4))):
        v = data.draw(st.sampled_from(vectors))
        m = data.draw(st.sampled_from(
            [m for e in range(top + 1) for m in amb.monomials_of_degree(e)]))
        w = {(j, tuple(a + b for a, b in zip(t, m))): c for (j, t), c in v.items()}
        u = data.draw(st.sampled_from(vectors))
        if vec_degree(amb, u, twists) == vec_degree(amb, w, twists):
            w = amb.add(w, u)
        vectors.append(w)
    vectors = [v for v in vectors if v]
    order = data.draw(st.permutations(range(len(vectors))))
    vectors = [vectors[i] for i in order]
    assert minimal_generators(ring, vectors, twists) == \
        reference_minimal_generators(ring, vectors, twists)
    b = [random_vector(data, amb, twists, lo + data.draw(st.integers(0, top)))
         for _ in range(data.draw(st.integers(1, 2)))]
    gb = groebner_basis(ring, [v for v in b if v], twists)
    assert minimal_generators(ring, vectors, twists, modulo=gb) == \
        reference_minimal_generators(ring, vectors, twists, modulo=gb)
