"""Property tests of the arithmetic over Q, F2, F3 and F2(l).

Hypothesis runs derandomized with a fixed number of examples, so every run
draws the same cases.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz.fields import PrimeField, Rationals
from ghz.polynomials import (FractionField, Poly, RatFunc, descend_power,
                             hasse_expand, lambda_field, substitute_poly)

F2 = PrimeField(2)
FIELDS = [Rationals(), F2, PrimeField(3), lambda_field(2)]
PROPERTY = settings(derandomize=True, database=None, max_examples=20,
                    deadline=None)


def _f2_poly(max_degree, monic=False):
    coeffs = st.lists(st.integers(0, 1), max_size=max_degree + 1 - monic)
    return coeffs.map(lambda cs: Poly(F2, dict(enumerate(cs + [1] * monic))))


def elements(field):
    """Raw values of ``field``: small fractions over Q, any small integer
    over F_p, reduced fractions of small polynomials over F2(l)."""
    if isinstance(field, Rationals):
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if isinstance(field, PrimeField):
        return st.integers(-6, 6)
    return st.builds(RatFunc, _f2_poly(2), _f2_poly(1, monic=True))


def polys(field, max_degree=4):
    return st.lists(elements(field), max_size=max_degree + 1).map(
        lambda cs: Poly(field, dict(enumerate(cs))))


fields = pytest.mark.parametrize("field", FIELDS, ids=repr)


@fields
@PROPERTY
@given(data=st.data())
def test_field_axioms_on_raw_values(field, data):
    a, b, c = (data.draw(elements(field)) for _ in range(3))
    k = field
    assert k.eq(k.add(a, b), k.add(b, a))
    assert k.eq(k.mul(a, b), k.mul(b, a))
    assert k.eq(k.add(k.add(a, b), c), k.add(a, k.add(b, c)))
    assert k.eq(k.mul(k.mul(a, b), c), k.mul(a, k.mul(b, c)))
    assert k.eq(k.mul(a, k.add(b, c)), k.add(k.mul(a, b), k.mul(a, c)))
    assert k.eq(k.add(a, k.zero()), a) and k.eq(k.mul(a, k.one()), a)
    assert k.is_zero(k.add(a, k.neg(a)))
    if not k.is_zero(a):
        assert k.is_one(k.mul(a, k.inv(a)))
    assert k.eq(a, b) == (k.canon(a) == k.canon(b))


@fields
@PROPERTY
@given(data=st.data())
def test_poly_equality_is_a_zero_difference(field, data):
    p = data.draw(polys(field))
    q = data.draw(st.one_of(polys(field), st.just(p)))
    r = data.draw(polys(field))
    q = q + r - r  # the same polynomial, by way of arithmetic
    assert (p == q) == (p - q).is_zero()
    if p == q:
        assert hash(p) == hash(q) and p.to_str() == q.to_str()


@pytest.mark.parametrize("field", [FIELDS[0], FIELDS[2], FIELDS[3]],
                         ids=repr)
@PROPERTY
@given(data=st.data())
def test_poly_equality_ignores_term_order(field, data):
    """Polys built from the same terms inserted in different orders, and
    from the terms' canonical values, are equal and hash equal; a Poly
    whose value differs is unequal."""
    terms = data.draw(st.dictionaries(st.integers(0, 6), elements(field),
                                      max_size=5))
    order = data.draw(st.permutations(sorted(terms)))
    p = Poly(field, terms)
    for q in (Poly(field, {e: terms[e] for e in order}),
              Poly(field, {e: terms[e] for e in reversed(order)}),
              Poly(field, {e: field.canon(terms[e]) for e in order})):
        assert p == q and not p != q and hash(p) == hash(q)
    e = data.draw(st.integers(0, 7))
    r = p + Poly.x(field, e)
    assert p != r and r != p and not p == r
    other = data.draw(polys(field))
    assert (p != other) == (not (p - other).is_zero())


@fields
@PROPERTY
@given(data=st.data())
def test_taylor_shift_and_spread_invert(field, data):
    p = data.draw(polys(field))
    c = data.draw(elements(field))
    d = data.draw(st.integers(1, 4))
    assert p.taylor_shift(c).taylor_shift(field.neg(c)) == p
    assert p.spread(d).regroup(d) == p


@fields
@PROPERTY
@given(data=st.data())
def test_exponent_moves_equal_the_constructor(field, data):
    """spread, _shifted and regroup move canonical nonzero coefficients
    without the constructor's canon_terms pass; each equals the Poly the
    constructor builds from the moved dict, zero included."""
    p = data.draw(polys(field))
    d = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(-min(p.coeffs, default=0), 4))
    for got, terms in (
            (p.spread(d), {e * d: c for e, c in p.coeffs.items()}),
            (p._shifted(s), {e + s: c for e, c in p.coeffs.items()}),
            (p.spread(d).regroup(d), p.coeffs)):
        want = Poly(field, terms)
        assert (got.coeffs, got.degree, hash(got)) == \
            (want.coeffs, want.degree, hash(want))


@fields
@PROPERTY
@given(data=st.data())
def test_poly_times_x_is_the_reduced_fraction(field, data):
    """c * x^k in one step equals the RatFunc route, for k of both signs and
    for a c with and without a constant term."""
    c = data.draw(polys(field)) + Poly.x(field, 5)
    for c in (c, c._shifted(2)):
        for k in range(-8, 9):
            want = RatFunc.from_poly(c).times_x(k)
            got = c.times_x(k)
            assert got == want and hash(got) == hash(want)
            assert (got.num.degree, got.den.degree) == \
                (want.num.degree, want.den.degree)


@fields
@PROPERTY
@given(data=st.data())
def test_descend_power_undoes_the_lift(field, data):
    num = data.draw(polys(field, 3))
    den = data.draw(polys(field, 2)) + Poly.x(field, 3)
    g = RatFunc(num, den)
    y0 = data.draw(elements(field))
    d = data.draw(st.integers(1, 3))
    lift = RatFunc(g.num.taylor_shift(y0).spread(d),
                   g.den.taylor_shift(y0).spread(d), reduce=False)
    assert descend_power(lift, d, y0) == g


@fields
@PROPERTY
@given(data=st.data())
def test_hasse_expand_matches_the_series_oracle(field, data):
    """poly(z + S) mod T^order by Hasse derivatives, against Horner's rule
    at z + S over k(z)."""
    poly = data.draw(polys(field, 3))
    step = data.draw(polys(field, 3))
    step = Poly(field, {e: c for e, c in step.coeffs.items() if e > 0})
    order = data.draw(st.integers(0, 7))
    K = FractionField(field, "z")

    def lift(c):
        return RatFunc.from_poly(Poly.const(field, c))

    base = Poly(K, {e: lift(c) for e, c in step.coeffs.items()})
    base = base + Poly.const(K, RatFunc.x(field))
    want = substitute_poly(Poly(K, {e: lift(c)
                                    for e, c in poly.coeffs.items()}),
                           base, order)
    got = hasse_expand(poly, step, order)
    assert {i: RatFunc.from_poly(c) for i, c in got.items()} == want.coeffs
