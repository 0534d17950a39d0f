import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import PolyRing, define_ring, groebner, jobs, parse_polynomial
from hwprobe.catalog import catalog
from hwprobe.hilbert import module_numerator
from hwprobe.ring import DEGREE_LIMIT
from hwprobe.freemod import (
    matvec,
    term_key,
    vec_component,
    vec_degree,
    vec_mul_term,
)
from hwprobe.groebner import (
    GroebnerBasis,
    InhomogeneousError,
    _buchberger_core,
    _interreduce,
    _prepare,
    _reduce,
    _unpack,
    colon_by_elements,
    express_in_terms,
    groebner_basis,
    minimal_generators,
    minimalize_presentation,
    saturate,
    syzygy_generators,
)
from conftest import mono_divides, reference_buchberger_core


def P(ring, s):
    return parse_polynomial(ring, s)


def as_vec(f, comp=0):
    return {(comp, m): c for m, c in f.items()}


def test_normal_form_one_division_step():
    # under lex the leading term of xw - yz is xw, so xw reduces to yz
    r = PolyRing(["x", "y", "z", "w"], [1, 1, 1, 1], 7, order="lex")
    gb = groebner_basis(r, [as_vec(P(r, "x*w - y*z"))], (0,))
    nf = gb.normal_form(as_vec(P(r, "x*w")))
    assert nf == as_vec(P(r, "y*z"))


def test_normal_form_no_divisible_term():
    r = PolyRing(["x", "y"], [1, 1], 7)
    gb = groebner_basis(r, [as_vec(P(r, "x"))], (0,))
    assert gb.normal_form(as_vec(P(r, "y"))) == as_vec(P(r, "y"))


def test_normal_form_koszul_module_case():
    # lt(y e0 - x e1) = -x e1 under term-over-position grevlex, so x^2 e0
    # is irreducible; frozen from a hand run of the division algorithm
    r = PolyRing(["x", "y"], [1, 1], 7)
    g = {(0, (0, 1)): 1, (1, (1, 0)): 6}
    order = term_key(r, 2)
    gb = GroebnerBasis(order, [{order(t): c for t, c in g.items()}], (0, 0))
    v = {(0, (2, 0)): 1}
    assert gb.normal_form(v) == v


def test_singleton_is_its_own_basis():
    r = PolyRing(["x", "y", "z", "w"], [1, 1, 1, 1], 7)
    f = as_vec(P(r, "x*w - y*z"))
    gb = groebner_basis(r, [f], (0,))
    assert len(gb.elements) == 1


def test_two_monomials_close_under_spair():
    r = PolyRing(["x", "y"], [1, 1], 7)
    gb = groebner_basis(r, [as_vec(P(r, "x^2")), as_vec(P(r, "x*y"))], (0,))
    lts = {m for (_c, m) in gb.leading_terms()}
    assert lts == {(2, 0), (1, 1)}


def test_groebner_matches_independent_cas():
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    oracle = sympy.groebner([x**2 - y * z, y**2 - x * z, z**2 - x * y],
                            x, y, z, modulus=7, order="grevlex")
    r = PolyRing(["x", "y", "z"], [1, 1, 1], 7)
    gens = [as_vec(P(r, s)) for s in ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")]
    gb = groebner_basis(r, gens, (0,))

    def to_sympy(vec):
        expr = 0
        for (_c, m), coef in vec.items():
            coef = coef if coef <= 3 else coef - 7
            expr += coef * x**m[0] * y**m[1] * z**m[2]
        return sympy.Poly(expr, x, y, z, modulus=7)

    ours = {to_sympy(v).monic() for v in gb.elements}
    theirs = {sympy.Poly(e, x, y, z, modulus=7).monic() for e in oracle.exprs}
    assert ours == theirs


def test_basis_recomputation_stable():
    r = PolyRing(["x", "y", "z"], [1, 1, 1], 7)
    gens = [as_vec(P(r, s)) for s in ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")]
    gb1 = groebner_basis(r, gens, (0,))
    gb2 = groebner_basis(r, list(gb1.elements), (0,))
    assert gb1.elements == gb2.elements


def test_inhomogeneous_input_rejected():
    r = PolyRing(["x", "y"], [1, 1], 7)
    with pytest.raises(InhomogeneousError):
        groebner_basis(r, [as_vec(P(r, "x + x^2"))], (0,))


def test_koszul_syzygy():
    r = PolyRing(["x", "y"], [1, 1], 7)
    syz = syzygy_generators(r, [as_vec(P(r, "x")), as_vec(P(r, "y"))], (0,))
    assert syz == [{(0, (0, 1)): 1, (1, (1, 0)): 6}]


def test_nonzerodivisor_has_no_syzygies():
    r = PolyRing(["x", "y"], [1, 1], 7)
    assert syzygy_generators(r, [as_vec(P(r, "x"))], (0,)) == []


def test_syzygies_annihilate_and_are_complete():
    # completeness at desk scale: random module elements of the syzygy
    # module reduce to zero against the returned generators
    r = PolyRing(["x", "y", "z"], [1, 1, 1], 7)
    gens = [as_vec(P(r, s)) for s in ("x*y - z^2", "x^2", "y*z")]
    syz = syzygy_generators(r, gens, (0,))
    for s in syz:
        assert not matvec(r, gens, s)
    twists = (2, 2, 2)
    gb_syz = groebner_basis(r, syz, twists)
    rng = random.Random(3)
    # build random syzygies as combinations of the returned ones
    for _ in range(10):
        acc = {}
        for s in syz:
            mono = tuple(rng.randrange(2) for _ in range(3))
            c = rng.randrange(7)
            for t, v in vec_mul_term(s, mono, c, 7).items():
                nv = (acc.get(t, 0) + v) % 7
                if nv:
                    acc[t] = nv
                else:
                    acc.pop(t, None)
        assert not matvec(r, gens, acc)
        assert gb_syz.contains(acc)


def test_gp_second_differential_columns_are_syzygies(gp_ring):
    from conftest import gp_matrix_cols
    d1 = gp_matrix_cols(gp_ring, 1)
    d2 = gp_matrix_cols(gp_ring, 2)
    from hwprobe.groebner import syzygies_over_quotient
    syz = syzygies_over_quotient(gp_ring, d1, (0, 0))
    gb = groebner_basis(gp_ring, syz, (1, 1))
    for col in d2:
        assert gb.contains(col)


def test_colon_and_saturation_in_polynomial_ring():
    r = define_ring(["x", "y"], [1, 1], 7, [])
    amb = r.ambient
    u = [as_vec(P(amb, "x^2*y"))]
    sat, steps = saturate(r, u, (0,), [P(amb, "y")])
    gb = groebner_basis(r, sat, (0,))
    assert gb.contains(as_vec(P(amb, "x^2")))
    assert not gb.contains(as_vec(P(amb, "x")))
    assert steps >= 1
    # idempotence
    sat2, steps2 = saturate(r, sat, (0,), [P(amb, "y")])
    assert steps2 == 0


def test_saturation_of_nilpotent_quotient_is_everything():
    r = define_ring(["x"], [1], 5, ["x^2"])
    amb = r.ambient
    # 0 : (x)^infty inside k[x]/(x^2): saturating 0 gives the whole module
    sat, _ = saturate(r, [], (0,), [P(amb, "x")])
    gb = groebner_basis(r, sat, (0,))
    assert gb.contains({(0, (0,)): 1})


def test_colon_of_free_by_irrelevant_ideal():
    r = define_ring(["x", "y"], [1, 1], 7, [])
    amb = r.ambient
    # U = F free (whole module): colon is everything
    whole = [{(0, (0, 0)): 1}]
    out = colon_by_elements(r, whole, (0,), [P(amb, "x"), P(amb, "y")])
    gb = groebner_basis(r, out, (0,))
    assert gb.contains({(0, (0, 0)): 1})


MINIMALIZE_RINGS = [define_ring(["x", "y"], [1, 1], 7, []),
                    define_ring(["x", "y", "z"], [1, 1, 1], 5, ["x*y", "z^2"])]


def test_minimalize_presentation_examples():
    r = define_ring(["x", "y"], [1, 1], 7, [])
    amb = r.ambient
    # [1] -> empty
    cols, twists, kept = minimalize_presentation(r, [as_vec(P(amb, "1"))], (0,))
    assert cols == [] and twists == () and kept == []
    # [[x, 0], [0, 1]] -> [x]
    cols = [{(0, (1, 0)): 1}, {(1, (0, 0)): 1}]
    cols2, twists2, kept2 = minimalize_presentation(r, cols, (0, 0))
    assert len(twists2) == 1 and kept2 == [0]
    assert cols2 == [{(0, (1, 0)): 1}]
    # [1, 1]: of the two units, the one in the smaller row is the pivot
    cols = [{(1, (0, 0)): 1, (0, (0, 0)): 1}]
    assert minimalize_presentation(r, cols, (0, 0)) == ([], (0,), [1])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_minimalize_presentation_ignores_entry_order(data):
    # the pivot is read from the entries' rows, never from their dict order,
    # so shuffling the entries of every column changes no column, twist or
    # kept row of the result
    r = data.draw(st.sampled_from(MINIMALIZE_RINGS))
    amb = r.ambient
    twists = tuple(data.draw(st.lists(st.integers(0, 2), min_size=1,
                                      max_size=4)))
    cols = []
    for _ in range(data.draw(st.integers(1, 4))):
        d = data.draw(st.integers(0, 3))
        col = {}
        for j, a in enumerate(twists):
            if d >= a:
                monos = amb.monomials_of_degree(d - a)
                for m in data.draw(st.lists(st.sampled_from(monos),
                                            max_size=2, unique=True)):
                    col[(j, m)] = data.draw(st.integers(1, amb.p - 1))
        cols.append(col)
    shuffled = [dict(data.draw(st.permutations(list(c.items()))))
                for c in cols]
    assert minimalize_presentation(r, shuffled, twists) == \
        minimalize_presentation(r, cols, twists)


def test_minimalize_preserves_hilbert_function():
    from hwprobe.modules import PresentedModule
    r = define_ring(["x", "y", "z"], [1, 1, 1], 101, [])
    amb = r.ambient
    twists = (0, 1, 1)
    rows = [["1", "x^2", "y^3"], ["0", "x", "y^2"], ["0", "y", "x*z"]]
    cols = []
    for c in range(3):
        col = {}
        for j in range(3):
            for m, coef in P(amb, rows[j][c]).items():
                col[(j, m)] = coef
        cols.append(col)
    raw = PresentedModule(r, twists, cols, normalize=False)
    minimal = PresentedModule(r, twists, cols, normalize=True)
    assert minimal.hilbert_function(0, 8) == raw.hilbert_function(0, 8)
    assert minimal.ngens < raw.ngens


def test_minimal_generators_drops_redundant():
    r = define_ring(["x", "y"], [1, 1], 7, [])
    amb = r.ambient
    # y^3 = y(xy - y^2) + y^2 x - ... is redundant for (x^2, xy - y^2)
    gens = [as_vec(P(amb, "x^2")), as_vec(P(amb, "x*y - y^2")),
            as_vec(P(amb, "y^3"))]
    mins = minimal_generators(r, gens, (0,))
    assert len(mins) == 2


def test_express_in_terms_round_trip(cusp, cusp_m):
    # membership with tracked division certificates: re-expressing an
    # element through the returned coordinates reproduces it modulo I
    from hwprobe.groebner import express_in_terms, vec_nf_ideal
    amb = cusp.ambient
    gens = list(cusp_m.rels)
    # y * (first relation) + x * (second relation) lies in the submodule
    target = {}
    for mono_scale, g in (((0, 1), gens[0]), ((1, 0), gens[1])):
        for (c, m), coef in vec_mul_term(g, mono_scale, 1, 7).items():
            target[(c, m)] = (target.get((c, m), 0) + coef) % 7
    target = {t: c for t, c in target.items() if c}
    [coords] = express_in_terms(cusp, [target], gens, [], cusp_m.twists)
    assert coords is not None
    rebuilt = {}
    for (i, m), c in coords.items():
        for (cc, mm), coef in vec_mul_term(gens[i], m, c, 7).items():
            v = (rebuilt.get((cc, mm), 0) + coef) % 7
            if v:
                rebuilt[(cc, mm)] = v
            else:
                rebuilt.pop((cc, mm), None)
    assert vec_nf_ideal(cusp, amb.sub(target, rebuilt)) == {}
    # an element outside the submodule has no expression
    outside = {(0, amb.zero_mono): 1}
    assert express_in_terms(cusp, [outside], gens, [], cusp_m.twists) == [None]


def test_random_ideals_match_independent_cas():
    sympy = pytest.importorskip("sympy")
    import sympy as sp
    xs = sp.symbols("x y z")
    r = PolyRing(["x", "y", "z"], [1, 1, 1], 7)
    rng = random.Random(2024)
    for trial in range(6):
        gens = []
        for _ in range(rng.randrange(2, 4)):
            d = rng.randrange(1, 4)
            f = {}
            for m in r.monomials_of_degree(d):
                c = rng.randrange(7)
                if c and rng.random() < 0.5:
                    f[m] = c
            if f:
                gens.append(f)
        if not gens:
            continue
        ours = groebner_basis(r, [as_vec(g) for g in gens], (0,))

        def to_sp(vec):
            e = 0
            for (_c, m), coef in vec.items():
                coef = coef if coef <= 3 else coef - 7
                e += coef * xs[0]**m[0] * xs[1]**m[1] * xs[2]**m[2]
            return sp.Poly(e, *xs, modulus=7)

        sp_gens = [to_sp(as_vec(g)) for g in gens]
        oracle = sp.groebner(sp_gens, *xs, modulus=7, order="grevlex")
        got = {to_sp(v).monic() for v in ours.elements}
        want = {sp.Poly(e, *xs, modulus=7).monic() for e in oracle.exprs}
        assert got == want, f"trial {trial} disagrees with the oracle"



MV_RING = PolyRing(["x", "y", "z"], [1, 2, 1], 7)
_mv_monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def _mv_vectors(ncomp):
    return st.dictionaries(st.tuples(st.integers(0, ncomp - 1), _mv_monos),
                           st.integers(1, 6), max_size=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_matvec_matches_entrywise_products(data):
    # (A v)_j = sum_c A[j][c] * v_c, each product and sum taken in PolyRing
    r = MV_RING
    n_src = data.draw(st.integers(1, 3))
    n_tgt = data.draw(st.integers(1, 3))
    cols = [data.draw(_mv_vectors(n_tgt)) for _ in range(n_src)]
    v = data.draw(_mv_vectors(n_src))
    want = {}
    for j in range(n_tgt):
        total = {}
        for c in range(n_src):
            total = r.add(total, r.mul(vec_component(cols[c], j),
                                       vec_component(v, c)))
        want.update({(j, m): coef for m, coef in total.items()})
    assert matvec(r, cols, v) == want


def fixpoint_interreduce(order, basis):
    """Reference interreduction of a packed basis: tail-reduce every element
    against all the others, re-preparing them each time, until a round
    changes nothing; the result is unpacked."""
    ring = order.ring
    items = sorted((v for v in basis if v), key=max)
    kept = []
    kept_lts = []
    for g in items:
        ((c, m),) = _unpack(order, {max(g): 1})
        if any(cc == c and mono_divides(mm, m) for cc, mm in kept_lts):
            continue
        kept.append(g)
        kept_lts.append((c, m))
    while True:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            r, _ = _reduce(order, kept[i], _prepare(order, others))
            if r != kept[i]:
                kept[i] = r
                changed = True
        if not changed:
            break
    out = [ring.scale(g, ring.field.inv(g[max(g)])) for g in kept]
    out.sort(key=max)
    return tuple(_unpack(order, g) for g in out)


IR_RINGS = [
    PolyRing(["x", "y", "z"], [1, 1, 1], 7),
    PolyRing(["x", "y", "z"], [1, 1, 1], 7, order="lex"),
    PolyRing(["x", "y", "z"], [1, 2, 3], 7),
    PolyRing(["x", "y", "z"], [2, 1, 3], 5, order="lex"),
]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_pass_interreduction_matches_fixpoint(data):
    r = data.draw(st.sampled_from(IR_RINGS))
    ncomp = data.draw(st.integers(1, 2))
    twists = tuple(data.draw(st.integers(0, 1)) for _ in range(ncomp))
    gens = []
    for _ in range(data.draw(st.integers(1, 4))):
        d = data.draw(st.integers(max(twists) + 1, max(twists) + 4))
        terms = [(c, m) for c in range(ncomp)
                 for m in r.monomials_of_degree(d - twists[c])]
        chosen = data.draw(st.lists(st.sampled_from(terms), min_size=1,
                                    max_size=4, unique=True))
        gens.append({t: data.draw(st.integers(1, r.p - 1)) for t in chosen})
    key = term_key(r, ncomp)
    basis = _buchberger_core(key, gens, twists)[0]
    got = groebner_basis(r, gens, twists).elements
    want = fixpoint_interreduce(key, basis)
    # equal item for item, insertion order of every dict included
    assert [list(g.items()) for g in got] == [list(g.items()) for g in want]
    lts = [max(g, key=key) for g in got]
    assert all(g[lt] == 1 for g, lt in zip(got, lts))
    for i, g in enumerate(got):
        for c, m in g:
            assert not any(j != i and cj == c and mono_divides(mj, m)
                           for j, (cj, mj) in enumerate(lts))


def test_packing_bound_is_applied():
    # a monomial packs while its weighted degree, counted from the lowest
    # twist, is below DEGREE_LIMIT; past it the entry points raise
    r = PolyRing(["x", "y"], [1, 3], 7)
    top = DEGREE_LIMIT - 1
    gb = groebner_basis(r, [{(0, (top, 0)): 1}], (0,))
    assert gb.elements == ({(0, (top, 0)): 1},)
    with pytest.raises(ValueError, match="packing bound"):
        groebner_basis(r, [{(0, (DEGREE_LIMIT, 0)): 1}], (0,))
    with pytest.raises(ValueError, match="packing bound"):
        groebner_basis(r, [{(0, (0, DEGREE_LIMIT // 3 + 1)): 1}], (0,))
    with pytest.raises(ValueError, match="packing bound"):
        r.mono_key((DEGREE_LIMIT, 0))
    # the twist counts: degree top - 1 in a component twisted by 2
    with pytest.raises(ValueError, match="packing bound"):
        groebner_basis(r, [{(1, (top - 1, 0)): 1}], (0, 2))
    # an S-pair past the bound, from inputs within it
    half = DEGREE_LIMIT // 2
    with pytest.raises(ValueError, match="S-pair"):
        groebner_basis(r, [{(0, (half, 0)): 1}, {(0, (0, half // 3 + 1)): 1}],
                       (0,))
    rq = define_ring(["x", "y"], [1, 1], 7, ["x*y"])
    with pytest.raises(ValueError, match="packing bound"):
        rq.nf({(DEGREE_LIMIT, 0): 1})
    # an ideal block x*y*e_1, packed once per ring, is checked in every run
    assert set(groebner_basis(rq, [], (0, top - 2)).leading_terms()) == {
        (0, (1, 1)), (1, (1, 1))}
    for twists in [(0, top - 1), (top - 1, 0)]:
        with pytest.raises(ValueError, match="packing bound"):
            groebner_basis(rq, [], twists)
        with pytest.raises(ValueError, match="packing bound"):
            syzygy_generators(rq, [], twists)
    with pytest.raises(ValueError, match="packing bound"):
        gb.normal_form({(0, (0, DEGREE_LIMIT)): 1})
    # a component outside the free module does not pack either
    with pytest.raises(ValueError, match="component"):
        gb.normal_form({(1, (1, 0)): 1})


def _random_vectors(data, r, twists, count):
    """Homogeneous vectors, each over a random nonempty set of components."""
    out = []
    for _ in range(count):
        comps = data.draw(st.lists(st.integers(0, len(twists) - 1),
                                   min_size=1, max_size=len(twists),
                                   unique=True))
        d = data.draw(st.integers(max(twists) + 1, max(twists) + 3))
        terms = [(c, m) for c in comps
                 for m in r.monomials_of_degree(d - twists[c])]
        chosen = data.draw(st.lists(st.sampled_from(terms), min_size=1,
                                    max_size=3, unique=True))
        out.append({t: data.draw(st.integers(1, r.p - 1)) for t in chosen})
    return out


def _hilbert(r, twists, vectors):
    gb = groebner_basis(r, vectors, twists)
    return gb, module_numerator(r, twists, gb.initial_module())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_pair_criteria_keep_bases_syzygies_and_lifts(data):
    # the criteria skip only pairs that cannot add anything: the reduced
    # basis is canonical, so it equals the criteria-free run's item for
    # item, and the syzygies generate the same module
    r = data.draw(st.sampled_from(IR_RINGS))
    twists = tuple(data.draw(st.integers(0, 1))
                   for _ in range(data.draw(st.integers(1, 3))))
    gens = _random_vectors(data, r, twists, data.draw(st.integers(1, 5)))
    key = term_key(r, len(twists))
    want = _interreduce(key, reference_buchberger_core(key, gens, twists)[0])
    got = groebner_basis(r, gens, twists).elements
    assert [list(g.items()) for g in got] == \
        [list(_unpack(key, g).items()) for g in want]

    syz_twists = tuple(vec_degree(r, g, twists) for g in gens)
    syz = syzygy_generators(r, gens, twists)
    _, _, ref, rep_order = reference_buchberger_core(key, gens, twists,
                                                     track=True)
    ref = [_unpack(rep_order, s) for s in ref if s]
    assert all(not matvec(r, gens, s) for s in syz)
    gb_syz, n_syz = _hilbert(r, syz_twists, syz)
    gb_ref, n_ref = _hilbert(r, syz_twists, ref)
    assert all(gb_syz.contains(s) for s in ref)
    assert all(gb_ref.contains(s) for s in syz)
    assert n_syz == n_ref

    rq = define_ring(r.names, r.weights, r.p, [], order=r.order)
    targets = []
    for _ in range(2):
        t = {}
        for g in gens:
            u = data.draw(st.sampled_from(r.monomials_of_degree(1)))
            for k, c in vec_mul_term(g, u, data.draw(st.integers(0, 2)),
                                     r.p).items():
                t[k] = (t.get(k, 0) + c) % r.p
        targets.append({k: c for k, c in t.items() if c})
    for t, coeff in zip(targets, express_in_terms(rq, targets, gens, [],
                                                  twists)):
        assert coeff is not None
        assert matvec(r, gens, coeff) == t


def test_product_criterion_needs_one_component():
    # x e0 + z e1 and y e0 + z e1 have coprime leading terms x e0 and y e0,
    # but their S-vector (y - x) z e1 is not in the span of their leading
    # terms: the pair must be reduced, untracked as well as tracked
    r = PolyRing(["x", "y", "z"], [1, 1, 1], 7)
    gens = [{(0, (1, 0, 0)): 1, (1, (0, 0, 1)): 1},
            {(0, (0, 1, 0)): 1, (1, (0, 0, 1)): 1}]
    s_vec = {(1, (1, 0, 1)): 6, (1, (0, 1, 1)): 1}
    gb = groebner_basis(r, gens, (0, 0))
    assert gb.contains(s_vec)
    assert (1, (1, 0, 1)) in gb.leading_terms()
    assert syzygy_generators(r, gens, (0, 0)) == []


def test_pair_criteria_reduce_fewer_pairs_on_cusp_hw(monkeypatch):
    # the work the criteria save, counted where it is spent: pairs that
    # _buchberger_core hands to _reduce over the whole cusp-hw job
    real_reduce = groebner._reduce

    def reduced_pairs(core):
        inside = [False]
        count = [0]

        def counting_core(*args, **kwargs):
            inside[0] = True
            try:
                return core(*args, **kwargs)
            finally:
                inside[0] = False

        def counting_reduce(*args, **kwargs):
            count[0] += inside[0]
            return real_reduce(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(groebner, "_buchberger_core", counting_core)
            mp.setattr(groebner, "_reduce", counting_reduce)
            report = jobs.run_job(catalog("cusp-hw"), 0)
        return count[0], jobs.emit(report, "structured")

    got, out = reduced_pairs(groebner._buchberger_core)
    want, ref_out = reduced_pairs(reference_buchberger_core)
    assert out == ref_out
    assert 0 < got < want


def test_ideal_blocks_form_no_pairs_in_untracked_runs(monkeypatch):
    # two ideal blocks never form a pair in an untracked run, since their
    # S-vector reduces to zero by blocks alone: over the gasharov-peeva job
    # untracked runs reduce fewer S-pairs than with the blocks handed to the
    # core as plain generators, and the report is the same
    real_core, real_reduce = groebner._buchberger_core, groebner._reduce

    def as_generators(order, gens, twists, track=False, blocks=()):
        plain = [_unpack(order, b) for b in blocks]
        return real_core(order, list(gens) + plain, twists, track)

    def untracked_reductions(core):
        inside = [False]
        count = [0]

        def counting_core(order, gens, twists, track=False, blocks=()):
            inside[0] = not track
            try:
                return core(order, gens, twists, track, blocks)
            finally:
                inside[0] = False

        def counting_reduce(*args, **kwargs):
            count[0] += inside[0]
            return real_reduce(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(groebner, "_buchberger_core", counting_core)
            mp.setattr(groebner, "_reduce", counting_reduce)
            report = jobs.run_job(catalog("gasharov-peeva"), 0)
        return count[0], jobs.emit(report, "structured")

    got, out = untracked_reductions(real_core)
    want, ref_out = untracked_reductions(as_generators)
    assert out == ref_out
    assert 0 < got < want
