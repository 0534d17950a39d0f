"""Lifts through a presentation: one batched tracked run per call.

``express_in_terms`` lifts a list of targets through generators modulo
auxiliary vectors and I*F.  It is checked against membership in Groebner
bases of the same submodules, against its own one-target calls, and, as a
matrix inverse, against the earlier cofactor inverse.
"""

import pytest
from conftest import GP_IDEAL, reference_invert_graded_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import (
    HypothesisError,
    biduality_map,
    define_ring,
    dual,
    matrix_factorization_of,
    parse_polynomial,
    quotient_module,
    tensor,
)
from hwprobe import homalg, tate
from hwprobe.freemod import unit_vector, vec_mul_term
from hwprobe.groebner import express_in_terms, groebner_basis, vec_nf_ideal

RINGS = [
    # the cusp, A = k[t^3, t^4, t^5] and the Gasharov-Peeva ring
    define_ring(["x", "y"], [3, 2], 7, ["x^2 - y^3"]),
    define_ring(["x", "y", "z"], [3, 4, 5], 101,
                ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"]),
    define_ring(["x1", "x2", "x3", "x4"], [1, 1, 1, 1], 5, GP_IDEAL),
]


def random_form(data, amb, deg):
    monos = amb.monomials_of_degree(deg) if deg >= 0 else []
    coeffs = data.draw(st.lists(st.integers(0, amb.p - 1), min_size=len(monos),
                                max_size=len(monos)))
    return {m: c for m, c in zip(monos, coeffs) if c}


def random_vector(data, amb, twists, d):
    """A random homogeneous vector of degree d, possibly zero."""
    return {(j, m): c for j, a in enumerate(twists)
            for m, c in random_form(data, amb, d - a).items()}


def combine(amb, coeffs, vectors):
    """sum(coeffs_i * vectors_i) for polynomial coefficients."""
    out = {}
    for f, v in zip(coeffs, vectors):
        for m, c in f.items():
            out = amb.add(out, vec_mul_term(v, m, c, amb.p))
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_lifts_are_certified_by_membership(data):
    ring = data.draw(st.sampled_from(RINGS))
    amb = ring.ambient
    top = max(amb.weights)
    twists = tuple(data.draw(st.lists(st.integers(0, top), min_size=1,
                                      max_size=2)))
    lo = max(twists)
    degs = [lo + data.draw(st.integers(0, top)) for _ in range(
        data.draw(st.integers(1, 3)))]
    gens = [random_vector(data, amb, twists, d) for d in degs]
    aux = [v for v in (random_vector(data, amb, twists, lo + top)
                       for _ in range(data.draw(st.integers(0, 1)))) if v]
    d = max(degs) + data.draw(st.integers(0, top))
    # targets inside <gens> + <aux> + I*F, arbitrary ones (mostly outside)
    # and zero
    targets = []
    for _ in range(data.draw(st.integers(1, 2))):
        inside = combine(amb, [random_form(data, amb, d - g) for g in degs], gens)
        inside = amb.add(inside, combine(
            amb, [random_form(data, amb, d - lo - top) for _ in aux], aux))
        targets.append(inside)
    targets += [random_vector(data, amb, twists, d)
                for _ in range(data.draw(st.integers(1, 2)))]
    targets.append({})
    lifts = express_in_terms(ring, targets, gens, aux, twists)
    assert len(lifts) == len(targets)
    span = groebner_basis(ring, gens + aux, twists)
    modulo = groebner_basis(ring, aux, twists)
    for v, c in zip(targets, lifts):
        if span.normal_form(v):
            assert c is None
            continue
        assert c is not None
        assert set(i for i, _ in c) <= set(range(len(gens)))
        assert vec_nf_ideal(ring, c) == c
        assert modulo.normal_form(amb.sub(combine(
            amb, [{m: x for (i, m), x in c.items() if i == k}
                  for k in range(len(gens))], gens), v)) == {}
    # a batch is its one-target calls, item for item
    singles = [express_in_terms(ring, [v], gens, aux, twists)[0]
               for v in targets]
    assert [None if c is None else list(c.items()) for c in lifts] == \
        [None if c is None else list(c.items()) for c in singles]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_lift_inverse_matches_cofactor_inverse(data):
    # with twists ascending, an entry below a twist step has negative degree,
    # so the matrix is block upper triangular with scalar diagonal blocks and
    # its determinant is the product of the diagonal scalars
    ring = data.draw(st.sampled_from(RINGS))
    amb = ring.ambient
    top = max(amb.weights)
    twists = tuple(sorted(data.draw(st.lists(st.integers(0, top), min_size=1,
                                             max_size=3))))
    n = len(twists)
    cols = []
    for c in range(n):
        col = {}
        for r in range(n):
            if r == c:
                f = {amb.zero_mono: data.draw(st.integers(0, amb.p - 1))}
            elif r < c:
                f = random_form(data, amb, twists[c] - twists[r])
            else:
                f = {}
            col.update({(r, m): x for m, x in f.items() if x})
        cols.append(col)
    lifts = express_in_terms(ring, [unit_vector(amb, j) for j in range(n)],
                             cols, [], twists)
    try:
        ref = reference_invert_graded_matrix(ring, cols, twists)
    except ValueError:
        assert None in lifts
        return
    assert lifts == ref


def test_biduality_map_makes_one_lift(monkeypatch, cusp, cusp_m):
    calls = []

    def counting(*args):
        calls.append(args[1])
        return lift(*args)

    lift = homalg.express_in_terms
    monkeypatch.setattr(homalg, "express_in_terms", counting)
    m = tensor(cusp_m, dual(cusp_m))
    biduality_map(m)
    assert len(calls) == 1 and len(calls[0]) == m.ngens


def test_matrix_factorization_computes_no_depth(monkeypatch, cusp_m):
    calls = []
    monkeypatch.setattr(tate, "depth", calls.append)
    mf = matrix_factorization_of(cusp_m)
    assert mf.size == 2 and calls == []


def test_square_non_mcm_presentation_is_rejected_by_depth(monkeypatch,
                                                          threefold):
    # R/(x) over xw - yz is presented by the 1x1 matrix (x): square, but f
    # does not lift through x, and the rejection names the depth
    calls = []

    def counting(module):
        calls.append(module)
        return depth(module)

    depth = tate.depth
    monkeypatch.setattr(tate, "depth", counting)
    rx = quotient_module(threefold, [parse_polynomial(threefold.ambient, "x")])
    assert len(rx.rels) == rx.ngens == 1
    with pytest.raises(HypothesisError, match="depth 2 < dim 3"):
        matrix_factorization_of(rx)
    assert len(calls) == 1
