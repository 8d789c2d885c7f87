from fractions import Fraction

import pytest

from ghz.fields import FieldError, PrimeField, Rationals

from helpers import from_fraction


def test_rationals_arithmetic():
    Q = Rationals()
    a = from_fraction(Q, Fraction(2, 3))
    b = Q.from_int(3)
    assert Q.eq(Q.mul(a, b), Q.from_int(2))
    assert Q.eq(Q.inv(b), from_fraction(Q, Fraction(1, 3)))
    assert Q.char_exponent == 1
    assert Q.to_str(a) == "2/3"


def test_prime_field_basic():
    F = PrimeField(7)
    assert F.char_exponent == 7
    x = F.from_int(10)
    assert F.eq(x, F.from_int(3))
    assert F.eq(F.inv(F.from_int(3)), F.from_int(5))
    assert F.eq(from_fraction(F, Fraction(1, 2)), F.from_int(4))


def test_prime_field_division_by_zero():
    F = PrimeField(5)
    with pytest.raises(FieldError):
        F.inv(F.zero())
    with pytest.raises(FieldError):
        from_fraction(F, Fraction(1, 5))


def test_prime_field_requires_prime():
    with pytest.raises(FieldError):
        PrimeField(6)
