from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import PolyRing
from hwprobe.freemod import schreyer_key, term_key
from hwprobe.groebner import _buchberger_core, _unpack, syzygy_generators


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
    # transitivity via key comparison is inherited from integer ordering
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
    key = term_key(r, 2)
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
    top = term_key(r, 1)
    skey = schreyer_key(top, [max(map(top, g)) for g in gens])
    basis = _buchberger_core(skey, syz, (1, 1, 1))[0]
    # a Groebner basis input gains no new leading terms
    lts_in = {max(s, key=skey) for s in syz}
    lts_out = {next(iter(_unpack(skey, {max(b): 1}))) for b in basis}
    reduced = set()
    for c, m in lts_out:
        if any(cc == c and all(a <= b for a, b in zip(mm, m))
               for cc, mm in lts_in):
            reduced.add((c, m))
    assert lts_out == reduced


# ---------------------------------------------------------------------------
# the packed encoding against the tuple keys it replaced


def oracle_mono_key(ring):
    """The tuple monomial key the packed form replaced."""
    if ring.order == "lex":
        return lambda m: m
    weights = ring.weights
    return lambda m: (sum(e * wi for e, wi in zip(m, weights)),
                      tuple(-e for e in reversed(m)))


def oracle_term_key(ring):
    mk = oracle_mono_key(ring)
    return lambda t: (mk(t[1]), -t[0])


def oracle_schreyer_key(prev_key, lts):
    def key(t):
        i, u = t
        c, m = lts[i]
        return (prev_key((c, tuple(x + y for x, y in zip(u, m)))), -i)
    return key


ORACLE_RINGS = [
    PolyRing(["x", "y", "z"], [1, 2, 1], 7),
    PolyRing(["x", "y"], [3, 2], 7),
    PolyRing(["a", "b", "c", "d", "e"], [1, 1, 1, 1, 1], 7),
    PolyRing(["x", "y", "z"], [1, 2, 1], 7, order="lex"),
    PolyRing(["x", "y"], [3, 2], 7, order="lex"),
    PolyRing(["a", "b", "c", "d", "e"], [2, 1, 1, 3, 1], 7, order="lex"),
]


def _draw_mono(data, ring, max_exp=6):
    return tuple(data.draw(st.integers(0, max_exp)) for _ in range(ring.nvars))


def _fields(ring, m):
    return -ring.mono_key(m) & ring.field_mask


def _cmp(a, b):
    return (a > b) - (a < b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_monomials_match_tuple_oracle(data):
    r = data.draw(st.sampled_from(ORACLE_RINGS))
    u, v = _draw_mono(data, r), _draw_mono(data, r)
    k, ok = r.mono_key, oracle_mono_key(r)
    # one order
    assert _cmp(k(u), k(v)) == _cmp(ok(u), ok(v))
    # multiplication is addition, and the key unpacks
    assert k(r.mono_mul(u, v)) == k(u) + k(v)
    assert r.key_mono(k(u)) == u
    # guard-bit divisibility is componentwise <=
    guard = r.guard
    divides = ((_fields(r, v) | guard) - _fields(r, u)) & guard == guard
    assert divides == all(a <= b for a, b in zip(u, v))
    # the masked-select lcm is the fieldwise max
    lcm = tuple(map(max, u, v))
    assert r.fields_lcm(_fields(r, u), _fields(r, v)) == (r.mono_deg(lcm),
                                                          k(lcm))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_terms_match_tuple_oracle(data):
    r = data.draw(st.sampled_from(ORACLE_RINGS))
    ncomp = data.draw(st.integers(1, 5))
    comps = st.integers(0, ncomp - 1)
    s, t = (data.draw(comps), _draw_mono(data, r)), \
        (data.draw(comps), _draw_mono(data, r))
    key, ok = term_key(r, ncomp), oracle_term_key(r)
    # the component tie-break included
    assert _cmp(key(s), key(t)) == _cmp(ok(s), ok(t))
    if s[0] + 1 < ncomp:
        assert key(s) > key((s[0] + 1, s[1]))
    u = _draw_mono(data, r)
    assert key((s[0], r.mono_mul(s[1], u))) == key(s) + (r.mono_key(u) << key.bits)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_schreyer_order_matches_tuple_oracle(data):
    r = data.draw(st.sampled_from(ORACLE_RINGS))
    ncomp = data.draw(st.integers(1, 3))
    ngens = data.draw(st.integers(1, 5))
    lts = [(data.draw(st.integers(0, ncomp - 1)), _draw_mono(data, r, 3))
           for _ in range(ngens)]
    top = term_key(r, ncomp)
    skey = schreyer_key(top, [top(lt) for lt in lts])
    ok = oracle_schreyer_key(oracle_term_key(r), lts)
    idx = st.integers(0, ngens - 1)
    s = (data.draw(idx), _draw_mono(data, r, 3))
    t = (data.draw(idx), _draw_mono(data, r, 3))
    assert _cmp(skey(s), skey(t)) == _cmp(ok(s), ok(t))
    u = _draw_mono(data, r, 3)
    assert skey((s[0], r.mono_mul(s[1], u))) == \
        skey(s) + (r.mono_key(u) << skey.bits)
    assert _unpack(skey, {skey(s): 1}) == {s: 1}
