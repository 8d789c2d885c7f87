from fractions import Fraction as F

import pytest

from ghz.curves import A1, P1, ClosedPoint, point_validate
from ghz.fields import PrimeField, Rationals
from ghz.geometry import Cone, Polyhedron
from ghz.polynomials import lambda_field, parse_factored, parse_poly
from ghz.tvariety import (DivisorError, PolyhedralDivisor, algebra_generators)

Q = Rationals()


def hyperbolic_w25():
    """Rank-1 divisor (1/5)[0] + {0, 1/5}[y] with y cut out by t^2 + l."""
    K = lambda_field(2)
    sigma = Cone.zero(1)
    y0 = ClosedPoint.rational(K, K.zero())
    y = point_validate(parse_poly("t^2 + l", K), "trusted")
    return K, y0, y, PolyhedralDivisor(K, A1, sigma, {
        y0: Polyhedron.from_points([(F(1, 5),)], sigma),
        y: Polyhedron.from_points([(F(0),), (F(1, 5),)], sigma),
    })


def rank2_ramified(field):
    sigma = Cone.orthant(2)
    w0 = ClosedPoint.rational(field, field.zero())
    w1 = ClosedPoint.rational(field, field.one())
    return w0, w1, PolyhedralDivisor(field, A1, sigma, {
        w0: Polyhedron.from_points([(F(1, 2), F(0))], sigma),
        w1: Polyhedron.from_points([(F(1, 2), F(0)), (F(0), F(1))], sigma),
    })


def test_validate_ok():
    K, y0, y, D = hyperbolic_w25()
    rep = D.validate()
    assert rep.ok
    assert any("t^2 + l" in t for t in rep.trust_markers)


def test_validate_rejects_bad_tail():
    halfline = Cone.from_generators([(1, 0), (-1, 0)], 2)
    D = PolyhedralDivisor(Q, A1, halfline, {})
    assert not D.validate().ok


def test_p1_positivity():
    sigma = Cone.from_generators([(1,)], 1)
    y0 = ClosedPoint.rational(Q, Q.zero())
    inf = ClosedPoint.infinity()
    good = PolyhedralDivisor(Q, P1, sigma, {
        y0: Polyhedron.from_points([(F(1, 2),)], sigma),
        inf: Polyhedron.from_points([(F(1, 3),)], sigma),
    })
    assert good.validate().ok
    # the full degree must avoid the origin
    bad = PolyhedralDivisor(Q, P1, sigma, {
        y0: Polyhedron.from_points([(F(-1, 3),)], sigma),
        inf: Polyhedron.from_points([(F(1, 3),)], sigma),
    })
    assert bad.validate().violations == [
        "deg D is not a proper subset of the tail cone (0 is a vertex of deg D)"]
    outside = PolyhedralDivisor(Q, P1, sigma, {
        y0: Polyhedron.from_points([(F(-1, 3),)], sigma),
        inf: Polyhedron.from_points([(F(1, 6),)], sigma),
    })
    assert outside.validate().violations == [
        "deg D is not contained in the tail cone"]
    # here deg D = sigma; as sigma is pointed, 0 is then a vertex of deg D
    orthant = Cone.orthant(2)
    apex = PolyhedralDivisor(Q, P1, orthant, {
        y0: Polyhedron.from_points([(F(0), F(1)), (F(-1, 2), F(0))], orthant),
        inf: Polyhedron.from_points([(F(1, 2), F(0))], orthant),
    })
    assert apex.validate().violations == [
        "deg D is not a proper subset of the tail cone (0 is a vertex of deg D)"]


def test_polyhedron_at_looks_up_the_support_first(monkeypatch):
    K, y0, y, D = hyperbolic_w25()

    def no_tail(self):
        raise AssertionError("tail polyhedron built")

    monkeypatch.setattr(PolyhedralDivisor, "tail_polyhedron", no_tail)
    assert D.polyhedron_at(y0) is D.support[y0]
    assert D.polyhedron_at(y) is D.support[y]
    with pytest.raises(AssertionError):
        D.polyhedron_at(ClosedPoint.rational(K, K.one()))


def test_eval_and_generator():
    K, y0, y, D = hyperbolic_w25()
    e5 = D.eval((5,))
    assert e5.coeff(y0) == 1 and e5.coeff(y) == 0
    assert e5.is_integral()
    e1 = D.eval((1,))
    assert e1.coeff(y0) == F(1, 5)
    # weight 5 generator is t^-1
    g = D.generator((5,))
    assert g.to_str() == "t^-1"
    g25 = D.generator((25,))
    assert g25.exponent_of(parse_poly("t", K)) == -5
    gneg = D.generator((-25,))
    assert gneg.exponent_of(parse_poly("t", K)) == 5
    assert gneg.exponent_of(parse_poly("t^2 + l", K)) == 5


def test_eval_outside_weight_cone():
    field = PrimeField(2)
    w0, w1, E = rank2_ramified(field)
    with pytest.raises(DivisorError):
        E.eval((-1, 0))


def test_degree_polyhedron():
    K, y0, y, D = hyperbolic_w25()
    deg = D.degree_polyhedron()
    # deg = (1/5)[y0-part] + 2*{0,1/5}: vertices 1/5 and 3/5
    assert sorted(deg.vertices) == [(F(1, 5),), (F(3, 5),)]


def test_linearity_fan():
    K, y0, y, D = hyperbolic_w25()
    pieces = D.linearity_fan(None)
    # two maximal linearity pieces: y's vertex at 0 or at 1/5
    assigns = sorted(tuple(sorted((pt.to_str(), tuple(v))
                                  for pt, v in assign.items()))
                     for _, _, assign in pieces)
    assert len(pieces) == 2
    assert (("t", (F(1, 5),)), ("t^2 + l", (F(0),))) in assigns


def test_membership():
    K, y0, y, D = hyperbolic_w25()
    f = parse_factored("t^-1", K)
    assert D.membership(f, (5,))
    assert not D.membership(parse_factored("t^-2", K), (5,))
    assert D.membership(parse_factored("t", K), (0,))


def test_algebra_generators_hyperbolic():
    K, y0, y, D = hyperbolic_w25()
    gens, cert = algebra_generators(D, 10)
    weights = sorted(g.weight for g in gens)
    assert (0,) in weights  # t itself
    assert (5,) in weights and (-5,) in weights
    assert cert.complete
    by_weight = {g.weight: g.coeff for g in gens}
    assert by_weight[(5,)].to_str() == "t^-1"
    assert by_weight[(-5,)].to_str() == "t*(t^2 + l)"


def test_algebra_generators_weight_cone():
    field = PrimeField(2)
    w0, w1, E = rank2_ramified(field)
    omega2 = Cone.from_generators([(0, 1), (2, 1)], 2)
    gens, _ = algebra_generators(E, 4, weight_cone=omega2)
    for g in gens:
        assert omega2.contains(g.weight)
