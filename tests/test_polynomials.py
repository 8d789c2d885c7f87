import random
from fractions import Fraction
from math import comb

import pytest

from ghz.engine import fmt_term
from ghz.fields import FieldError, PrimeField, Rationals
from ghz.polynomials import (FractionField, ParseError, Poly, RatFunc,
                             descend_power, factor_list, fmt_factors,
                             hasse_expand, lambda_field, parse_poly,
                             parse_scalar, poly_gcd, substitute_poly)
from ghz.scenarios import ScenarioError, parse_scenario

from helpers import binom_general, expanded, from_fraction, int_poly

Q = Rationals()
F2 = PrimeField(2)


def qp(coeffs):
    return int_poly(Q, coeffs)


def test_poly_arithmetic():
    a = qp([1, 2, 1])  # 1 + 2t + t^2
    b = qp([1, 1])
    assert a == b * b
    assert (a - b * b).is_zero()
    assert a.degree == 2
    assert a.evaluate(Q.from_int(2)) == Q.from_int(9)


def test_poly_divmod():
    a = qp([-1, 0, 0, 1])  # t^3 - 1
    b = qp([-1, 1])
    q, r = a.divmod(b)
    assert r.is_zero()
    assert q == qp([1, 1, 1])


def _long_division(a, b):
    """Textbook long division: recompute the remainder's degree and drop its
    zero terms after every step."""
    k = a.field
    q, r = {}, dict(a.coeffs)
    inv = k.inv(b.leading())

    def rdeg():
        return max((e for e, c in r.items() if not k.is_zero(c)), default=-1)

    d = rdeg()
    while d >= b.degree:
        c = k.mul(r[d], inv)
        q[d - b.degree] = c
        for e, x in b.coeffs.items():
            ee = e + d - b.degree
            r[ee] = k.sub(r.get(ee, k.zero()), k.mul(x, c))
        r = {e: c for e, c in r.items() if not k.is_zero(c)}
        d = rdeg()
    return Poly(k, q), Poly(k, r)


def _random_scalar(rng, field):
    """A small integer, plus l over a fraction field, or plus 1."""
    gen = field.generator() if field.generator_name else field.one()
    c = field.from_int(rng.randint(-3, 3))
    return field.add(c, gen) if rng.random() < 0.3 else c


def _random_poly(rng, field, degree, density=1.0):
    """A polynomial of at most ``degree`` whose terms are kept with
    probability ``density``; scalars from ``_random_scalar``."""
    return Poly(field, {e: _random_scalar(rng, field)
                        for e in range(degree + 1)
                        if e == degree or rng.random() < density})


@pytest.mark.parametrize("field", [Q, F2, PrimeField(3), lambda_field(2)],
                         ids=repr)
def test_divmod_matches_long_division(field):
    rng = random.Random(20261018)
    cases = [(Poly.zero(field), _random_poly(rng, field, 2)),
             (Poly.one(field), _random_poly(rng, field, 3)),
             (Poly.x(field, 40) + Poly.one(field), Poly.x(field, 3)),
             (Poly.x(field, 31), Poly.x(field, 1) + Poly.one(field))]
    for _ in range(40):
        da, db = rng.randint(0, 30), rng.randint(0, 6)
        cases.append((_random_poly(rng, field, da, rng.choice((0.2, 1.0))),
                      _random_poly(rng, field, db)))
    for _ in range(5):  # constant divisors and deg a < deg b
        for da, db in ((9, 0), (2, 5)):
            cases.append((_random_poly(rng, field, da),
                          _random_poly(rng, field, db)))
    for a, b in cases:
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert (q, r) == _long_division(a, b), (a, b)
        assert q * b + r == a and r.degree < b.degree
        assert a % b == r
        if r.is_zero():
            assert a.exact_div(b) == q
    with pytest.raises(FieldError):
        Poly.one(field).divmod(Poly.zero(field))


def test_poly_compose_regroup():
    f = qp([0, 0, 1])  # t^2
    assert f.taylor_shift(Q.one()) == qp([1, 2, 1])
    h = qp([3, 0, 5, 0, 7])  # in t^2
    assert h.regroup(2) == qp([3, 5, 7])
    assert qp([3, 5, 7]).spread(2) == h


def _horner_compose(p, q):
    """p(q) by Horner's rule, one polynomial product per degree: the
    generic substitution that the Taylor shift and ``spread`` replace."""
    k = p.field
    r = Poly.zero(k)
    for e in range(p.degree, -1, -1):
        r = r * q + Poly.const(k, p.coeff(e))
    return r


FIELDS = [Q, F2, PrimeField(3), lambda_field(2)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_taylor_shift_matches_horner_compose(field):
    rng = random.Random(4604)
    one = field.one()
    shifts = [field.zero(), one, field.neg(one)]
    while len(shifts) < 6:
        c = _random_scalar(rng, field)
        if not field.is_zero(c):
            shifts.append(c)
    polys = [Poly.zero(field), Poly.one(field),
             Poly.const(field, shifts[-1]), Poly.x(field, 12)]
    polys += [_random_poly(rng, field, rng.randint(1, 12),
                           rng.choice((0.3, 1.0))) for _ in range(12)]
    for c in shifts:
        t_plus_c = Poly(field, {1: one, 0: c})
        for p in polys:
            assert p.taylor_shift(c) == _horner_compose(p, t_plus_c), (p, c)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_spread_inverts_regroup(field):
    rng = random.Random(4605)
    for _ in range(20):
        p = _random_poly(rng, field, rng.randint(0, 8), 0.5)
        for d in (1, 2, 3, 5):
            up = p.spread(d)
            assert up.regroup(d) == p
            assert up == _horner_compose(p, Poly.x(field, d))
    assert Poly.zero(field).spread(3).is_zero()


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_unreduced_lift_is_reduced(field):
    """The engine's lift g(z^d + y0) keeps a reduced g reduced with a
    monic denominator, so building it with reduce=False gives the same
    fraction as the reducing constructor; the descent takes it back."""
    rng = random.Random(4606)
    checked = 0
    while checked < 12:
        num = _random_poly(rng, field, rng.randint(0, 4))
        den = _random_poly(rng, field, rng.randint(1, 4))
        if num.is_zero() or den.is_zero():
            continue
        g = RatFunc(num, den)
        for d in (1, 2, 3):
            for y0 in (field.zero(), field.one(), _random_scalar(rng, field)):
                lift = [p.taylor_shift(y0).spread(d) for p in (g.num, g.den)]
                h = RatFunc(*lift, reduce=False)
                assert h == RatFunc(*lift), (g, d, y0)
                assert descend_power(h, d, y0) == g
        checked += 1


def test_poly_gcd():
    a = qp([1, 1]) * qp([2, 1])
    b = qp([1, 1]) * qp([3, 1])
    assert poly_gcd(a, b) == qp([1, 1])


def test_poly_to_str():
    assert qp([-1, 0, 1]).to_str() == "t^2 - 1"
    assert int_poly(F2, [1, 1]).to_str() == "t + 1"
    # a coefficient -1 is printed as a sign, as a coefficient 1 is left out
    assert qp([1, -1]).to_str() == "-t + 1"
    assert qp([-1, -1, 0, -1]).to_str() == "-t^3 - t - 1"
    assert qp([-1]).to_str() == "-1"
    assert int_poly(PrimeField(3), [1, -1]).to_str() == "2*t + 1"
    step = Poly(Q, {3: Fraction(1, 2), 1: Fraction(-1)})
    assert step.to_str("T") == "(1/2)*T^3 - T"
    K = FractionField(Q)
    assert int_poly(K, [1, 0, -1]).to_str() == "-t^2 + 1"


def test_ratfunc_reduce():
    r = RatFunc(qp([0, 1, 1]), qp([0, 1]))  # (t^2+t)/t
    assert r == RatFunc.from_poly(qp([1, 1]))
    assert r.is_poly()
    neg = RatFunc.x(Q, -2)
    assert neg.num.is_one() and neg.den == qp([0, 0, 1])


def test_ratfunc_times_x():
    r = RatFunc(qp([0, 0, 2, 1]), qp([0, 1, 0, 1]))  # (t^3+2t^2)/(t^3+t)
    for e in range(-4, 5):
        assert r.times_x(e) == r * RatFunc.x(Q, e)
    zero = RatFunc.zero(Q)
    for e in (-2, 0, 3):
        assert zero.times_x(e) == zero
        assert zero.times_x(e).is_poly()


def test_ratfunc_compose_inverse():
    r = RatFunc.x(Q, 1) + RatFunc.one(Q)
    assert RatFunc(r.num.spread(2), r.den.spread(2), reduce=False) \
        == RatFunc.from_poly(qp([1, 0, 1]))
    assert (r * r.inverse()) == RatFunc.one(Q)
    with pytest.raises(FieldError):
        RatFunc.zero(Q).inverse()


def test_fraction_field():
    K = FractionField(Q, "z")
    z = K.generator()
    x = K.inv(K.add(z, K.one()))
    assert K.eq(K.mul(x, K.add(z, K.one())), K.one())
    assert K.to_str(z) == "z"


def test_lambda_field():
    K = lambda_field(2)
    assert K.char_exponent == 2
    l = K.generator()
    assert K.is_zero(K.add(l, l))
    assert K.generator_name == "l"


_T, _T1, _TM1 = qp([0, 1]), qp([1, 1]), qp([-1, 1])


@pytest.mark.parametrize("pairs, factors, text, value", [
    # shared factors merge, sorted by (degree, printed form)
    ([(_T1, 2), (_T, 1)], ((_T, 1), (_T1, 2)), "t*(t + 1)^2",
     RatFunc(_T * _T1 * _T1, Poly.one(Q))),
    # exponents that cancel drop their factor
    ([(_T1, 2), (_T, 1), (_T1, -3), (_T, -1)], ((_T1, -1),), "(t + 1)^-1",
     RatFunc(Poly.one(Q), _T1)),
    ([(_T, 0)], (), "1", RatFunc.one(Q)),
    ([], (), "1", RatFunc.one(Q)),
    # the P1 basis element t^-1*(t - 1) * t of the `piece` golden
    ([(_T, -1), (_TM1, 1), (_T, 1)], ((_TM1, 1),), "(t - 1)",
     RatFunc(_TM1, Poly.one(Q))),
    ([(_T, -1), (_TM1, 1), (_T, 0)], ((_T, -1), (_TM1, 1)), "t^-1*(t - 1)",
     RatFunc(_TM1, _T)),
], ids=["merge", "cancel", "zero-exponent", "empty", "p1-basis-t",
        "p1-basis-1"])
def test_factor_list_and_fmt_factors(pairs, factors, text, value):
    got = factor_list(pairs)
    assert got == factors
    assert fmt_factors(got) == text
    assert expanded(Q, got) == value


def test_truncated_series():
    """Horner substitution and the Hasse expansion drop every term at or
    above T^order."""
    square = qp([0, 0, 1])
    one_plus_t = qp([1, 1])
    assert substitute_poly(square, one_plus_t, 5) == qp([1, 2, 1])
    assert substitute_poly(square, one_plus_t, 2) == qp([1, 2])
    assert substitute_poly(square, one_plus_t, 0).is_zero()
    cube, step = qp([0, 0, 0, 1]), qp([0, 1])  # z^3 and S = T
    assert hasse_expand(cube, step, 2) == {0: cube, 1: qp([0, 0, 3])}
    assert hasse_expand(cube, step, 0) == {}
    assert hasse_expand(cube, qp([0, 0, 0, 1]), 3) == {0: cube}


def _lucas_cases():
    """(field, polynomial, step) triples reaching binomials C(e, n) with
    e <= 12, among them C(e, n) = 0 and = p - 1 mod p, and steps of one to
    three terms with coefficients other than 1."""
    F3 = PrimeField(3)
    K = lambda_field(2)
    lam = K.generator()
    rng = random.Random(2611)
    cases = []
    for field, scalars, steps in (
            (Q, [Q.from_int(n) for n in (1, -1, 2)] + [Fraction(1, 3)],
             [{1: Fraction(2)}, {1: Fraction(-1), 3: Fraction(1, 2)}]),
            (F2, [1], [{1: 1}, {2: 1, 4: 1}, {1: 1, 2: 1, 4: 1}]),
            (F3, [1, 2], [{1: 2}, {3: 2, 1: 1}, {1: 2, 3: 1, 9: 2}]),
            (K, [K.one(), lam, K.add(lam, K.one())],
             [{1: lam}, {1: K.add(lam, K.one()), 2: K.inv(lam)},
              {1: K.one(), 2: lam, 4: K.inv(lam)}])):
        for step in steps:
            step = Poly(field, step)
            for degree in (1, 5, 8, 12):
                coeffs = {e: rng.choice(scalars) for e in range(degree)}
                coeffs[degree] = rng.choice(scalars)
                cases.append(pytest.param(
                    field, Poly(field, coeffs), step,
                    id=f"{field!r}-deg{degree}-S={step.to_str('T')}"))
    return cases


@pytest.mark.parametrize("field, poly, step", _lucas_cases())
def test_hasse_expand_in_the_lucas_range(field, poly, step, monkeypatch):
    """hasse_expand against Horner's rule at z + S over k(z), at orders
    below, at and above the top order deg poly * deg S, and with no field
    multiplication by 0 (a factor 1 is the field's to skip, as
    FractionField.mul does)."""
    top = poly.degree * step.degree
    p = field.char_exponent
    if p > 1 and poly.degree >= 5:
        residues = {comb(e, n) % p for e in poly.coeffs for n in range(e + 1)}
        assert {0, p - 1} <= residues
    K = FractionField(field, "z")

    def lift(c):
        return RatFunc.from_poly(Poly.const(field, c))

    base = Poly(K, {e: lift(c) for e, c in step.coeffs.items()})
    base = base + Poly.const(K, RatFunc.x(field))
    lifted = Poly(K, {e: lift(c) for e, c in poly.coeffs.items()})
    mul = field.mul

    def checked(a, b):
        assert not (field.is_zero(a) or field.is_zero(b))
        return mul(a, b)

    for order in (top // 2, top, top + 1, top + 3):
        want = substitute_poly(lifted, base, order)
        with monkeypatch.context() as m:
            m.setattr(field, "mul", checked)
            got = hasse_expand(poly, step, order)
        assert ({i: RatFunc.from_poly(c) for i, c in got.items()}
                == want.coeffs), order


def test_substitute_poly():
    base = qp([0, 1, 1])  # T + T^2
    out = substitute_poly(qp([0, 0, 1]), base, 4)  # (T+T^2)^2 mod T^4
    assert out == qp([0, 0, 1, 2])


def test_descend_power():
    # (z^2)^3 + 1 descends along z -> z^2 with shift 0
    r = RatFunc.from_poly(Poly(Q, {6: Q.one(), 0: Q.one()}))
    down = descend_power(r, 2, Q.zero())
    assert down == RatFunc.from_poly(qp([1, 0, 0, 1]))
    with pytest.raises(FieldError):
        descend_power(RatFunc.x(Q, 1), 2, Q.zero())
    # characteristic 2 divides d = 2
    K = lambda_field(2)
    r = RatFunc(parse_poly("t^4+l", K), parse_poly("t^2+1", K))
    down = descend_power(r, 2, K.zero())
    assert down == RatFunc(parse_poly("t^2+l", K), parse_poly("t+1", K))
    with pytest.raises(FieldError):
        descend_power(RatFunc(parse_poly("t^3", F2), parse_poly("t^2+1", F2)),
                      2, F2.zero())


def test_descend_power_shift():
    # z^2 = (t - 1) when z^2 corresponds to t shifted by the base point 1
    r = RatFunc.from_poly(Poly(Q, {2: Q.one()}))
    down = descend_power(r, 2, Q.one())
    assert down == RatFunc.from_poly(qp([-1, 1]))
    # characteristic 3 divides d = 3: (u^2 + 1)/(u + 2) at u = t - 1
    F3 = PrimeField(3)
    r = RatFunc(parse_poly("t^6+1", F3), parse_poly("t^3+2", F3))
    down = descend_power(r, 3, F3.one())
    assert down == RatFunc(parse_poly("t^2+t+2", F3), parse_poly("t+1", F3))


def test_parse_poly_and_scalar():
    assert parse_poly("t^2 - 2*t + 1", Q) == qp([1, -2, 1])
    assert parse_scalar("-3/2", Q) == from_fraction(Q, Fraction(-3, 2))
    with pytest.raises(ParseError):
        parse_poly("1/t", Q)


F3L = lambda_field(3)

# (reader, field, text, what it reads): a printed value, or the class and
# message of the error. "coeff" is an element coefficient of a scenario,
# printed with engine.fmt_term.
PARSER_TABLE = [
    ("poly", Q, "--t", "t"),
    ("poly", Q, "+t", "t"),
    ("scalar", Q, "2/10", "1/5"),
    ("scalar", Q, "0/3", "0"),
    ("scalar", Q, "-3/2", "-3/2"),
    ("poly", Q, "t^1", "t"),
    ("poly", Q, "t + 0", "t"),
    ("poly", F2, "t+3", "t + 1"),
    ("poly", Q, "(t+1)^0", "1"),
    ("poly", Q, "t^2 - 2*t + 1", "t^2 - 2*t + 1"),
    ("poly", Q, "t/t + 1", "2"),
    ("scalar", F3L, "l+1", "l + 1"),
    ("scalar", F3L, "1/(l+1)", "(1)/(l + 1)"),
    ("coeff", Q, "t^-2", "((1)/(t^2))*chi^(0,)"),
    # a leading sign negates a lone term, whatever its written form
    ("coeff", Q, "-t^-1", "((-1)/(t))*chi^(0,)"),
    ("coeff", Q, "-1/t", "((-1)/(t))*chi^(0,)"),
    # a sum may have any rational terms: only its value is read
    ("coeff", Q, "0-1/t", "((-1)/(t))*chi^(0,)"),
    ("coeff", Q, "-t^-1 + 0", "((-1)/(t))*chi^(0,)"),
    ("coeff", Q, "1/t + 0", "((1)/(t))*chi^(0,)"),
    ("coeff", Q, "0*t + 1/t", "((1)/(t))*chi^(0,)"),
    ("coeff", Q, "t^-1 + 1", "((t + 1)/(t))*chi^(0,)"),
    ("poly", Q, "1/t + t - 1/t", "t"),
    ("coeff", F3L, "2*t^2*(t^2+l)^-1", "((2*t^2)/(t^2 + l))*chi^(0,)"),
    ("coeff", F2, "t*(t+1)", "(t^2 + t)*chi^(0,)"),
    ("coeff", F2, "(t+1)^-2*(t^2+1)", "(1)*chi^(0,)"),
    ("coeff", Q, "0", "(0)*chi^(0,)"),
    ("coeff", Q, "0*t^-1", "(0)*chi^(0,)"),
    # cancelling written forms
    ("poly", F2, "(t^2+1)/(t+1)", "t + 1"),
    ("poly", Q, "(t^2-1)/(t-1)", "t + 1"),
    ("poly", Q, "(t^2-1)/(t-1) + 1", "t + 2"),
    # division by zero
    ("scalar", Q, "1/0", ("ParseError", "division by zero at position 1")),
    ("scalar", Q, "0^-1",
     ("ParseError", "zero to a non-positive power at position 1")),
    ("scalar", Q, "0^0",
     ("ParseError", "zero to a non-positive power at position 1")),
    ("coeff", Q, "t/(t-t)", ("ScenarioError", "bad coefficient 't/(t-t)': "
                             "division by zero at position 1")),
    ("coeff", F2, "(t+1)^-1/(1+1)",
     ("ScenarioError", "bad coefficient '(t+1)^-1/(1+1)': division by zero "
                       "at position 8")),
    # malformed text
    ("poly", Q, "t +* 1", ("ParseError", "unexpected token at position 3")),
    ("poly", Q, "(t", ("ParseError", "expected ')' at position 2")),
    ("poly", Q, "x", ("ParseError", "unknown symbol 'x' at position 0")),
    ("poly", Q, "t^", ("ParseError", "expected 'num' at position 2")),
    ("poly", Q, "2t", ("ParseError", "trailing input at position 1")),
    ("poly", Q, "t^+2", ("ParseError", "expected 'num' at position 2")),
    ("poly", Q, "t % 2",
     ("ParseError", "unexpected character '%' at position 2")),
    ("poly", Q, "1/t",
     ("ParseError", "expected a polynomial, got a proper rational function")),
    ("poly", Q, "t^-1 + 1",
     ("ParseError", "expected a polynomial, got a proper rational function")),
    ("poly", Q, "-t^-1",
     ("ParseError", "expected a polynomial, got a proper rational function")),
    ("scalar", Q, "t", ("ParseError", "unknown symbol 't' at position 0")),
]


def _parsed(reader, field, text):
    try:
        if reader == "poly":
            return parse_poly(text, field).to_str()
        if reader == "scalar":
            return field.to_str(parse_scalar(text, field))
        sc = parse_scenario({"elements": [{"weight": [0], "coeff": text}]},
                            field_override=field)
        ((m, f),) = sc.elements
        return fmt_term(f, m)
    except (ParseError, ScenarioError, FieldError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("reader, field, text, want", PARSER_TABLE,
                         ids=[f"{r}-{f!r}-{t}" for r, f, t, _ in PARSER_TABLE])
def test_parser_table(reader, field, text, want):
    assert _parsed(reader, field, text) == want


def test_raw_values_have_one_canonical_form():
    """Poly canonicalizes its raw coefficients, so == is equality of the
    polynomials however their coefficients were written."""
    F3 = PrimeField(3)
    K = lambda_field(2)
    l = K.generator()
    # (l^2 + l) / l, built without the reduction RatFunc's constructor does
    unreduced = RatFunc(Poly(F2, {2: 1, 1: 1}), Poly(F2, {1: 1}),
                        reduce=False)
    cases = [
        (Q, {0: Fraction(6, 4), 3: Fraction(0)}, {0: Fraction(3, 2)}),
        (F2, {0: 3, 1: 2, 2: -1}, {0: 1, 2: 1}),
        (F3, {0: -1, 1: 3, 2: 4}, {0: 2, 2: 1}),
        (K, {0: unreduced, 1: K.zero()}, {0: l + K.one()}),
    ]
    for field, raw, canonical in cases:
        a, b = Poly(field, raw), Poly(field, canonical)
        assert a == b and hash(a) == hash(b), field
        assert a.coeffs == b.coeffs and a.to_str() == b.to_str()
        for c in raw.values():
            assert field.canon(field.canon(c)) == field.canon(c)
    assert Poly(F2, {0: 3}) == Poly.one(F2)
    assert Poly(F3, {4: 6}).is_zero()
    assert RatFunc.from_poly(Poly(F2, {0: 3})) == RatFunc.one(F2)
    assert K.canon(unreduced) == l + K.one()


@pytest.mark.parametrize("error, guard, message", [
    (ValueError, lambda: binom_general(3, -1),
     "lower index must be nonnegative"),
    (FieldError, lambda: Q.inv(Q.zero()), "division by zero in Q"),
    (FieldError, lambda: PrimeField(3).inv(6), r"division by zero in GF\(3\)"),
    (FieldError, lambda: qp([0, 1]) ** -1, "negative power of a polynomial"),
    (FieldError, lambda: qp([1, 1]).divmod(Poly.zero(Q)),
     "polynomial division by zero"),
    (FieldError, lambda: qp([0, 1]).exact_div(qp([1, 1])),
     "inexact polynomial division"),
    (FieldError, lambda: qp([1, 0, 0, 1]).regroup(2),
     "exponents not divisible"),
    (FieldError, lambda: RatFunc(qp([1]), Poly.zero(Q)), "zero denominator"),
    (FieldError, lambda: RatFunc.zero(Q).inverse(),
     "inverse of zero rational function"),
], ids=["binomial", "Q", "GF(p)", "power", "divmod", "exact_div", "regroup",
        "denominator", "inverse"])
def test_arithmetic_guards(error, guard, message):
    with pytest.raises(error, match=f"^{message}$"):
        guard()


def test_a_scalar_has_no_variable():
    """parse_scalar parses with no variable, so a non-constant value cannot
    arise: the curve variable is an unknown symbol."""
    with pytest.raises(ParseError, match="unknown symbol 't' at position 2"):
        parse_scalar("1+t", Q)
    assert F2.to_str(parse_scalar("(1+1)*3", F2)) == "0"
