from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import (
    ISO,
    NOT_ISO,
    UNDECIDED,
    IsoResult,
    PresentedModule,
    define_ring,
    free_module,
    is_isomorphic,
    parse_polynomial,
    quotient_module,
    syzygy_module,
)
from hwprobe.isomorphism import _nullspace


def P(rq, s):
    return parse_polynomial(rq.ambient, s)


def test_iso_result_record():
    r = IsoResult(NOT_ISO, 2, None, "hilbert function", {"deg": 1})
    assert r == IsoResult(verdict=NOT_ISO, twist=2, invariant="hilbert function",
                          detail={"deg": 1})
    assert (r.verdict, r.twist, r.certificate, r.invariant, r.detail) == \
        (NOT_ISO, 2, None, "hilbert function", {"deg": 1})
    assert r != IsoResult(NOT_ISO, 3, None, "hilbert function", {"deg": 1})
    assert r != IsoResult(NOT_ISO, 2, None, "generator degrees", {"deg": 1})
    # the text the result printed as a dataclass
    assert repr(r) == ("IsoResult(verdict='NOT_ISO', twist=2, certificate=None, "
                       "invariant='hilbert function', detail={'deg': 1})")
    a, b = IsoResult(ISO), IsoResult(verdict=ISO)
    assert a == b and (a.twist, a.certificate, a.invariant) == (0, None, None)
    a.detail["note"] = "set on a only"
    assert b.detail == {} and a != b
    assert [bool(IsoResult(v)) for v in (ISO, NOT_ISO, UNDECIDED)] == \
        [True, False, False]


def test_identity_is_isomorphism(cusp_m):
    res = is_isomorphic(cusp_m, cusp_m)
    assert res.verdict == ISO
    cert = res.certificate
    assert cert.check()
    assert cert.is_surjective() and cert.is_injective()


def test_distinguishes_by_hilbert_function(cusp):
    a = quotient_module(cusp, [P(cusp, "x")])
    b = quotient_module(cusp, [P(cusp, "y")])
    res = is_isomorphic(a, b)
    assert res.verdict == NOT_ISO
    assert res.invariant == "hilbert function"


def test_twist_is_pinned_by_hilbert_series(cusp_m):
    shifted = cusp_m.twist(-3)
    assert is_isomorphic(cusp_m, shifted).verdict == NOT_ISO
    res = is_isomorphic(cusp_m, shifted, allow_twist=True)
    assert res.verdict == ISO
    assert res.twist == 3


def test_free_modules_of_different_rank(cusp):
    assert is_isomorphic(free_module(cusp, (0,)),
                         free_module(cusp, (0, 0))).verdict == NOT_ISO


def test_gp_fourth_syzygy_isomorphic_with_twist(gp_ring_t, gp_module_t):
    n = gp_module_t
    res = is_isomorphic(n, syzygy_module(n, 4), allow_twist=True)
    assert res.verdict == ISO and res.twist == 4
    for i in (1, 2, 3):
        r = is_isomorphic(n, syzygy_module(n, i), allow_twist=True)
        assert r.verdict == NOT_ISO


def test_gp_syzygy_cokernels_match_periodic_matrices(gp_ring):
    # the minimal resolution reproduces the periodic presentation matrices
    # up to change of basis: coker(d_{n+1}) is the module presented by the
    # (n+1)-st matrix of the periodic family
    from conftest import gp_matrix_cols
    n1 = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1))
    for i in (1, 2, 3, 4):
        direct = PresentedModule(gp_ring, (0, 0), gp_matrix_cols(gp_ring, 1 + i))
        res = is_isomorphic(syzygy_module(n1, i), direct, allow_twist=True)
        assert res.verdict == ISO and res.twist == -i


def test_nonisomorphic_same_hilbert_function():
    # R/(x) and R/(y) over k[x,y]/(xy) with weights (1,1): same Hilbert
    # function; an isomorphism would need a unit-coefficient map
    r = define_ring(["x", "y"], [1, 1], 7, ["x*y"])
    a = quotient_module(r, [P(r, "x")])
    b = quotient_module(r, [P(r, "x")])
    assert is_isomorphic(a, b).verdict == ISO


def test_mixed_degree_generators_permuted(cusp_m):
    a = cusp_m.direct_sum(cusp_m.twist(-1))
    b = cusp_m.twist(-1).direct_sum(cusp_m)
    res = is_isomorphic(a, b)
    assert res.verdict == ISO
    assert res.certificate.check()


def test_mixed_degree_not_isomorphic(cusp, cusp_m):
    from hwprobe import residue_field_module
    a = cusp_m.direct_sum(residue_field_module(cusp))
    b = cusp_m.direct_sum(residue_field_module(cusp).twist(-2))
    res = is_isomorphic(a, b, allow_twist=True)
    assert res.verdict == NOT_ISO



def _dense_rank(rows, ncols, p):
    mat = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                q = mat[i][col] * inv % p
                mat[i] = [(a - q * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_nullspace_is_the_kernel(data):
    p = data.draw(st.sampled_from([2, 5, 101]))
    ncols = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), st.integers(1, p - 1),
                        max_size=ncols), max_size=6))
    basis = _nullspace(rows, ncols, p)
    for vec in basis:
        for row in rows:
            assert sum(c * vec.get(k, 0) for k, c in row.items()) % p == 0
    assert len(basis) == ncols - _dense_rank(rows, ncols, p)
    assert _dense_rank(basis, ncols, p) == len(basis)


def test_large_bar_space_is_sampled(threefold):
    # Hom(R^2, R^2)_0 has bar dimension 4: (101^4 - 1) / 100 points are too
    # many to exhaust, so the search samples
    f = free_module(threefold, (0, 0))
    res = is_isomorphic(f, f, sample_budget=0)
    assert res.verdict == UNDECIDED
    assert res.detail == {"bar_dim": 4, "sampled": 0}
    res = is_isomorphic(f, f)
    assert res.verdict == ISO
    assert res.detail["bar_dim"] == 4
    assert res.certificate.check()
