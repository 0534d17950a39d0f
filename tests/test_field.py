import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import PrimeField


def test_rejects_composites_and_out_of_range():
    for bad in (0, 1, 4, 9, 2**31, 561, 1_000_000):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_accepts_primes():
    for p in (2, 3, 5, 7, 101, 2**31 - 1):
        assert PrimeField(p).p == p


def test_inverse_examples():
    f7 = PrimeField(7)
    assert f7.inv(3) == 5
    f5 = PrimeField(5)
    assert f5.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([5, 7, 101]), st.integers(1, 10**6),
       st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms(p, a, b, c):
    f = PrimeField(p)
    a %= p
    b %= p
    c %= p
    if a:
        assert f.mul(a, f.inv(a)) == 1
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
