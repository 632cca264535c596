import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gradedk.fields import FieldSpec, GFElement
from randomdata import random_scalar


def test_rationals_basic():
    Q = FieldSpec.rationals()
    assert Q.scalar("3/4") == Fraction(3, 4)
    assert Q.scalar(5) == 5
    assert Q.one + Q.one == 2
    assert Q.is_invertible_int(7)
    assert not Q.is_invertible_int(0)
    assert Q.format_scalar(Fraction(-1, 2)) == "-1/2"
    assert Q.format_scalar(Fraction(4, 2)) == "2"


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        FieldSpec.prime_field(6)
    with pytest.raises(ValueError):
        FieldSpec.prime_field(1)
    FieldSpec.prime_field(2)
    FieldSpec.prime_field(97)


def test_prime_field_large_characteristic():
    # primality is sympy's isprime, a proof below 2^64 and answered at once;
    # trial division up to sqrt(p) ran for hours at 2^61 - 1
    start = time.perf_counter()
    assert FieldSpec.prime_field(2 ** 61 - 1).characteristic == 2 ** 61 - 1
    with pytest.raises(ValueError, match="must be a prime"):
        FieldSpec.prime_field((2 ** 31 - 1) ** 2)
    assert time.perf_counter() - start < 5
    with pytest.raises(ValueError, match="below 2\\^64"):
        FieldSpec.prime_field(2 ** 64 + 13)


def test_gf_arithmetic_matches_integer_oracle():
    p = 7
    F = FieldSpec.prime_field(p)
    rng = random.Random(11)
    for _ in range(300):
        a, b = rng.randrange(p), rng.randrange(p)
        x, y = F.scalar(a), F.scalar(b)
        assert (x + y).v == (a + b) % p
        assert (x - y).v == (a - b) % p
        assert (x * y).v == (a * b) % p
        if b:
            assert ((x / y) * y) == x
        assert (-x).v == (-a) % p


def test_gf_reflected_operators():
    F = FieldSpec.prime_field(7)
    assert 5 - F.scalar(3) == F.scalar(2)
    assert 5 / F.scalar(3) == F.scalar(4)
    with pytest.raises(ZeroDivisionError):
        5 / F.scalar(0)


def test_gf_pow_negative_exponent():
    F = FieldSpec.prime_field(5)
    x = F.scalar(2)
    assert x ** -1 == F.scalar(3)  # 2*3 = 6 = 1
    assert x ** -2 == (x ** 2) ** -1
    assert x ** 0 == F.one
    assert F.scalar(4) ** -3 == F.scalar(4)  # 4 = -1
    with pytest.raises(ZeroDivisionError):
        F.zero ** -1


def test_gf_fraction_coercion():
    F = FieldSpec.prime_field(5)
    # 1/2 = 3 in GF(5)
    assert F.scalar(Fraction(1, 2)) == F.scalar(3)
    assert F.scalar("1/2") == F.scalar(3)
    with pytest.raises(ZeroDivisionError):
        F.scalar(Fraction(1, 5))


def test_gf_mixed_characteristic_rejected():
    a = GFElement(5, 1)
    b = GFElement(7, 1)
    with pytest.raises(ValueError):
        a + b


def test_field_enumeration():
    F = FieldSpec.prime_field(3)
    assert sorted(e.v for e in F.elements()) == [0, 1, 2]
    with pytest.raises(ValueError):
        FieldSpec.rationals().elements()


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_gf_ring_axioms(a, b, c):
    F = FieldSpec.prime_field(13)
    x, y, z = F.scalar(a), F.scalar(b), F.scalar(c)
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x


def test_random_scalar_deterministic():
    F = FieldSpec.rationals()
    r1, r2 = random.Random(3), random.Random(3)
    a = [random_scalar(F, r1) for _ in range(5)]
    b = [random_scalar(F, r2) for _ in range(5)]
    assert a == b
