import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import (
    HypothesisError,
    ISO,
    PresentedModule,
    define_ring,
    free_module,
    is_isomorphic,
    parse_polynomial,
    quotient_module,
    residue_field_module,
    tensor,
)
from hwprobe.freemod import vec_component
from hwprobe.groebner import poly_det


def P(rq, s):
    return parse_polynomial(rq.ambient, s)


def test_quotient_module_presentation(threefold):
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    assert m.ngens == 1
    assert len(m.rels) == 2


def test_free_module_has_empty_presentation(threefold):
    f = free_module(threefold, (0, 0))
    assert f.is_free() and f.ngens == 2 and f.rels == ()


def test_gp_module_two_generators(gp_ring):
    from conftest import gp_matrix_cols
    n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    assert n.ngens == 2
    assert len(n.rels) == 2


def test_zero_module_normalizes_away(cusp):
    z = quotient_module(cusp, [P(cusp, "1")])
    assert z.is_zero()


def test_tensor_with_ring_is_identity(cusp, cusp_m):
    r1 = free_module(cusp, (0,))
    t = tensor(cusp_m, r1)
    assert is_isomorphic(cusp_m, t).verdict == ISO


def test_tensor_of_cyclic_quotients(threefold):
    j = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    k = quotient_module(threefold, [P(threefold, "x"), P(threefold, "y")])
    jk = quotient_module(threefold, [P(threefold, s) for s in ("x", "y", "z")])
    t = tensor(j, k)
    assert is_isomorphic(t, jk).verdict == ISO
    assert t.hilbert_function(0, 6) == [1] * 7


def test_twist_shifts_hilbert_function(cusp_m):
    hf = cusp_m.hilbert_function(0, 6)
    tw = cusp_m.twist(2).hilbert_function(-2, 4)
    assert hf == tw


def test_direct_sum_hilbert_additivity(cusp, cusp_m):
    k = residue_field_module(cusp)
    s = cusp_m.direct_sum(k)
    a = cusp_m.hilbert_function(0, 8)
    b = k.hilbert_function(0, 8)
    c = s.hilbert_function(0, 8)
    assert c == [x + y for x, y in zip(a, b)]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.integers(0, 2))
def test_direct_sum_hilbert_additivity_random_twists(s1, s2):
    r = define_ring(["x", "y"], [1, 1], 7, ["x*y"])
    a = quotient_module(r, [P(r, "x")]).twist(s1)
    b = quotient_module(r, [P(r, "y^2")]).twist(-s2)
    lo, hi = -3, 6
    ha = a.hilbert_function(lo, hi)
    hb = b.hilbert_function(lo, hi)
    hs = a.direct_sum(b).hilbert_function(lo, hi)
    assert hs == [x + y for x, y in zip(ha, hb)]


def test_trim_free_summands(cusp, cusp_m):
    f = free_module(cusp, (1,))
    s = cusp_m.direct_sum(f)
    trimmed, free = s.trim_free_summands()
    assert free == (1,)
    assert trimmed.ngens == cusp_m.ngens
    # with no free generator the module itself comes back, memos and all
    trimmed, free = cusp_m.trim_free_summands()
    assert trimmed is cusp_m and free == ()


def test_rank_examples(cusp, cusp_m, threefold):
    assert free_module(threefold, (0, 0)).rank() == 2
    t = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    assert t.rank() == 0  # torsion module over a domain
    # the 2x2 minor of the maximal ideal's presentation is x^2 - y^3 = 0
    assert cusp_m.rank() == 1


def test_rank_needs_domain(gp_ring):
    from conftest import gp_matrix_cols
    n = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    with pytest.raises(HypothesisError):
        n.rank()


def test_nonfree_locus(cusp, cusp_m, threefold):
    assert free_module(threefold, (0,)).nonfree_locus_dim() == -1
    assert cusp_m.nonfree_locus_dim() == 0
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    # supported on a surface, but the ring is regular off the origin
    assert m.nonfree_locus_dim() == 0


def test_krull_dim_examples(threefold, cusp):
    m = quotient_module(threefold, [P(threefold, "x"), P(threefold, "z")])
    assert m.krull_dim() == 2
    k = residue_field_module(cusp)
    assert k.krull_dim() == 0
    assert free_module(threefold, (0,)).krull_dim() == 3


def test_element_normal_form(cusp, cusp_m):
    # x*gen_y - y*gen_x is a relation, so the two products agree in m
    amb = cusp.ambient
    v1 = {(0, (0, 1)): 1}   # y * gen_x
    v2 = {(1, (1, 0)): 1}   # x * gen_y
    assert cusp_m.element_nf(v1) == cusp_m.element_nf(v2)


def search_rank_mod_ideal(m):
    """Reference: the largest r with a nonzero r x r minor mod I, found by
    growing only the row and column sets of the nonzero minors."""
    amb = m.ring.ambient

    def entry(row, col):
        return vec_component(m.rels[col], row)

    nc = len(m.rels)
    g = m.ngens
    level = {((), ())}
    r = 0
    while r < min(g, nc):
        nxt = set()
        for rows, cols in level:
            for i in range(g):
                if i in rows:
                    continue
                for j in range(nc):
                    if j in cols:
                        continue
                    nxt.add((tuple(sorted(rows + (i,))),
                             tuple(sorted(cols + (j,)))))
        good = set()
        for rows, cols in sorted(nxt):
            if not m.ring.is_zero(poly_det(amb, entry, rows, cols)):
                good.add((rows, cols))
        if not good:
            return r
        level = good
        r += 1
    return r


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_matches_the_minor_search(threefold, data):
    amb = threefold.ambient
    ngens = data.draw(st.integers(1, 3))
    twists = tuple(data.draw(st.integers(0, 1)) for _ in range(ngens))
    cols = []
    for _ in range(data.draw(st.integers(1, 3))):
        d = data.draw(st.integers(max(twists) + 1, max(twists) + 2))
        terms = [(k, mono) for k in range(ngens)
                 for mono in amb.monomials_of_degree(d - twists[k])]
        chosen = data.draw(st.lists(st.sampled_from(terms), min_size=1,
                                    max_size=4, unique=True))
        cols.append({t: data.draw(st.integers(1, amb.p - 1)) for t in chosen})
    m = PresentedModule(threefold, twists, cols)
    assert m.rank() == m.ngens - search_rank_mod_ideal(m)
