from math import comb

from ghz.fields import PrimeField, Rationals
from ghz.polynomials import lambda_field

from helpers import binom_general, binom_in_field


def test_binom_general_matches_comb():
    for n in range(10):
        for j in range(10):
            assert binom_general(n, j) == comb(n, j)


def test_binom_general_negative():
    # C(-1, 3) = (-1)(-2)(-3)/6 = -1
    assert binom_general(-1, 3) == -1
    assert binom_general(-2, 2) == 3


def test_lucas_small():
    for p in (2, 3, 5):
        field = PrimeField(p)
        for n in range(30):
            for j in range(30):
                assert binom_in_field(n, j, field) == comb(n, j) % p


def test_lucas_c5_mod2():
    # 5 = 101 in base 2, so by Lucas's theorem C(5, j) is odd exactly for
    # j in {0, 1, 4, 5}
    F2 = PrimeField(2)
    odd = [j for j in range(6) if F2.is_one(binom_in_field(5, j, F2))]
    assert odd == [0, 1, 4, 5]


def test_binom_in_field():
    Q = Rationals()
    assert Q.eq(binom_in_field(5, 2, Q), Q.from_int(10))
    F2 = PrimeField(2)
    assert F2.is_zero(binom_in_field(5, 2, F2))
    assert F2.is_one(binom_in_field(5, 4, F2))
    K = lambda_field(2)
    assert K.is_one(binom_in_field(5, 1, K))
    assert K.is_zero(binom_in_field(6, 1, K))
