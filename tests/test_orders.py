from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import PolyRing
from hwprobe.freemod import term_key, vec_leading
from hwprobe.groebner import schreyer_order_for, syzygy_generators


@st.composite
def monos(draw, nvars=3, max_exp=4):
    return tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(monos(), monos(), monos())
def test_grevlex_is_total_multiplicative_transitive(u, v, w):
    r = PolyRing(["x", "y", "z"], [1, 2, 1], 7)
    k = r.mono_key
    # totality and antisymmetry
    assert (k(u) < k(v)) + (k(v) < k(u)) + (u == v) == 1
    # multiplicative
    if k(u) < k(v):
        assert k(r.mono_mul(u, w)) < k(r.mono_mul(v, w))
    # transitivity via key comparison is inherited from tuple ordering
    trip = sorted([u, v, w], key=k)
    assert k(trip[0]) <= k(trip[1]) <= k(trip[2])


def test_grevlex_classic_comparisons():
    r = PolyRing(["x", "y", "z"], [1, 1, 1], 7)
    k = r.mono_key
    assert k((1, 0, 0)) > k((0, 1, 0))          # x > y
    assert k((0, 2, 0)) > k((1, 0, 1))          # y^2 > xz
    r4 = PolyRing(["x", "y", "z", "w"], [1, 1, 1, 1], 7)
    k4 = r4.mono_key
    assert k4((0, 1, 1, 0)) > k4((1, 0, 0, 1))  # yz > xw


def test_module_order_component_tiebreak():
    r = PolyRing(["x", "y"], [1, 1], 7)
    key = term_key(r)
    m = (1, 0)
    assert key((0, m)) > key((1, m))  # same monomial: lower component wins
    assert key((1, (1, 0))) > key((0, (0, 1)))  # monomial comparison first


def test_schreyer_syzygies_form_a_groebner_basis():
    # Koszul syzygies of (x, y, z): the returned generators must be a
    # Groebner basis for the induced order: every S-vector reduces to zero.
    r = PolyRing(["x", "y", "z"], [1, 1, 1], 7)
    gens = [{(0, (1, 0, 0)): 1}, {(0, (0, 1, 0)): 1}, {(0, (0, 0, 1)): 1}]
    syz = syzygy_generators(r, gens, (0,))
    assert len(syz) == 3
    skey = schreyer_order_for(r, gens)
    from hwprobe.groebner import _buchberger_core
    basis, _, _ = _buchberger_core(r, syz, (1, 1, 1), skey)
    # a Groebner basis input gains no new leading terms
    lts_in = {vec_leading(s, skey)[0] for s in syz}
    lts_out = {vec_leading(b, skey)[0] for b in basis}
    reduced = set()
    for c, m in lts_out:
        if any(cc == c and all(a <= b for a, b in zip(mm, m))
               for cc, mm in lts_in):
            reduced.add((c, m))
    assert lts_out == reduced
