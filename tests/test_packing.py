"""The strand frame's packed terms (``freemod.pack_term``).

A term (c, m) of a free module over n variables is one int whose integer
order is the tuple order, identity coordinates (-1, i) included, so the
frame's pivots are the ones tuples give.  Unpacking gives the term back,
multiplying by x^u adds ``pack_mono(u)``, and packing raises ValueError once
an exponent reaches ``DEGREE_LIMIT``, before a field could carry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GP_IDEAL

from hwprobe import define_ring
from hwprobe.freemod import pack_mono, pack_term, pack_vec, unpack_term
from hwprobe.modules import ring_blocks
from hwprobe.ring import DEGREE_LIMIT, FIELD_BITS

EXPONENT = st.integers(0, DEGREE_LIMIT - 1)


def monomials(nvars, exponent=EXPONENT):
    return st.tuples(*[exponent] * nvars)


@st.composite
def terms(draw, nvars):
    """A term (c, m), or an identity coordinate (-1, i) below 2^(n W)."""
    if draw(st.booleans()):
        return -1, draw(st.integers(0, (1 << FIELD_BITS * nvars) - 1))
    return draw(st.integers(0, 1 << 20)), draw(monomials(nvars))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), nvars=st.integers(1, 5))
def test_integer_order_is_tuple_order(data, nvars):
    a, b = data.draw(terms(nvars)), data.draw(terms(nvars))
    pa, pb = pack_term(a), pack_term(b)
    assert (pa < pb, pa == pb) == (a < b, a == b)
    assert unpack_term(pa, nvars) == a and unpack_term(pb, nvars) == b


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), nvars=st.integers(1, 5))
def test_multiplying_by_a_monomial_adds_its_packing(data, nvars):
    half = st.integers(0, DEGREE_LIMIT // 2 - 1)
    c = data.draw(st.integers(0, 1 << 20))
    m, u = data.draw(monomials(nvars, half)), data.draw(monomials(nvars, half))
    product = tuple(x + y for x, y in zip(m, u))
    assert pack_term((c, product)) == pack_term((c, m)) + pack_mono(u)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), nvars=st.integers(1, 5))
def test_packing_raises_at_the_bound(data, nvars):
    m = list(data.draw(monomials(nvars)))
    assert unpack_term(pack_term((0, tuple(m))), nvars) == (0, tuple(m))
    m[data.draw(st.integers(0, nvars - 1))] = data.draw(
        st.sampled_from([DEGREE_LIMIT, DEGREE_LIMIT + 1, 2 * DEGREE_LIMIT]))
    with pytest.raises(ValueError, match="packing bound"):
        pack_term((0, tuple(m)))


def test_a_product_past_the_bound_raises():
    # the row of x1^(2^15) is past the bound: its table row fails to enter
    ring = define_ring(["x1", "x2", "x3", "x4"], [1, 1, 1, 1], 5, GP_IDEAL)
    blocks = ring_blocks(ring)
    v = pack_vec({(0, (DEGREE_LIMIT - 1, 0, 0, 0)): 1})
    for _ in range(2):
        with pytest.raises(ValueError, match="packing bound"):
            blocks.mul_nf(v, pack_mono((1, 0, 0, 0)))
    assert blocks.mul_nf(v, 0) == {}
