import pytest

from ghz.curves import (A1, P1, ClosedPoint, PointError, _insep_split,
                        h0_generators, point_validate)
from ghz.fields import PrimeField, Rationals
from ghz.polynomials import Poly, lambda_field, parse_poly

from helpers import h0_dimension, principal_divisor

Q = Rationals()
F2 = PrimeField(2)


def test_rational_point():
    y = ClosedPoint.rational(Q, Q.from_int(3))
    assert y.is_rational and y.degree == 1
    assert Q.eq(y.rational_value(), Q.from_int(3))
    assert y.to_str() == "t - 3"


def test_infinity_point():
    inf = ClosedPoint.infinity()
    assert inf.is_infinity
    with pytest.raises(PointError):
        inf.rational_value()
    assert inf.epsilon == 1


def test_point_validate_strict():
    q = parse_poly("t^2 + t + 1", F2)
    y = point_validate(q)
    assert y.degree == 2 and not y.trusted
    with pytest.raises(PointError):
        point_validate(parse_poly("t^2 + 1", F2))  # (t+1)^2


def test_point_validate_reducible_over_q():
    with pytest.raises(PointError):
        point_validate(parse_poly("t^2 - 1", Q))
    assert point_validate(parse_poly("t^2 + 1", Q)).degree == 2


def test_point_validate_trusted_marker():
    K = lambda_field(2)
    q = parse_poly("t^2 + l", K)
    with pytest.raises(PointError):
        point_validate(q)
    y = point_validate(q, trusted=True)
    assert y.trusted and y.degree == 2


def test_insep_profile():
    K = lambda_field(2)
    y = point_validate(parse_poly("t^2 + l", K), trusted=True)
    assert y.epsilon == 2
    assert _insep_split(y.poly) == (1, 2, 1, parse_poly("t + l", K))
    y2 = point_validate(parse_poly("t + 1", F2))
    assert y2.epsilon == 1 and _insep_split(y2.poly)[:2] == (0, 1)


def test_principal_divisor():
    f = [(parse_poly("t", Q), 1), (parse_poly("t+1", Q), -2)]
    d = principal_divisor(f, A1)
    y0 = ClosedPoint.rational(Q, Q.zero())
    y1 = ClosedPoint.rational(Q, Q.neg(Q.one()))
    assert d == {y0: 1, y1: -2}
    dp = principal_divisor(f, P1)
    assert dp[ClosedPoint.infinity()] == 1
    assert sum(c * y.degree for y, c in dp.items()) == 0


def test_h0_affine():
    y0 = ClosedPoint.rational(Q, Q.zero())
    mod = h0_generators({y0: -2}, A1, Q)
    # the divisor is -2[0], so the generator is t^2
    assert mod.generator == ((Poly(Q, {1: Q.one()}), 2),)


def test_h0_projective():
    y0 = ClosedPoint.rational(Q, Q.zero())
    inf = ClosedPoint.infinity()
    mod = h0_generators({y0: 1, inf: 2}, P1, Q)
    assert h0_dimension(mod) == 4
    assert len(mod.basis()) == 4
    empty = h0_generators({y0: -1}, P1, Q)
    assert empty.is_empty and h0_dimension(empty) == 0


def test_h0_infinity_rejected_on_a1():
    with pytest.raises(PointError):
        h0_generators({ClosedPoint.infinity(): 1}, A1, Q)


def test_point_hash_is_cached_and_unchanged():
    k = lambda_field(2)
    for field, text in ((Q, "t^2 - 2"), (F2, "t + 1"), (k, "t^2 + l")):
        a = ClosedPoint(parse_poly(text, field))
        b = ClosedPoint(parse_poly(text, field), trusted=True)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(("pt", parse_poly(text, field)))
        assert len({a, b}) == 1
    inf = ClosedPoint.infinity()
    assert hash(inf) == hash(ClosedPoint(None)) == hash(("pt", None))
