import random
from fractions import Fraction as F
from math import floor

import pytest

from ghz.classifier import (ClassifierError, CoherentFamily, Coloring,
                            _random_family, associated_cones,
                            candidate_colorings, coherent_validate,
                            coloring_validate, demazure_root_check,
                            demazure_roots_enumerate, enumerate_coherent,
                            equivalence_probe, floor_condition_check,
                            toricity_check)
from ghz.curves import A1, P1, ClosedPoint, insep_profile, point_validate
from ghz.fields import PrimeField, Rationals
from ghz.geometry import Cone, Polyhedron, dot, lattice_box, vadd, vec
from ghz.polynomials import lambda_field, parse_poly
from ghz.reports import Report
from ghz.tvariety import PolyhedralDivisor

Q = Rationals()


def hyperbolic_w25(field, second):
    sigma = Cone.zero(1)
    y0 = ClosedPoint.rational(field, field.zero())
    y = point_validate(parse_poly(second, field), "trusted")
    D = PolyhedralDivisor(field, A1, sigma, {
        y0: Polyhedron.from_points([(F(1, 5),)], sigma),
        y: Polyhedron.from_points([(F(0),), (F(1, 5),)], sigma),
    })
    col = Coloring(D, {y0: (F(1, 5),), y: (F(0),)}, y0)
    return D, col


def rank2_ramified(field):
    sigma = Cone.orthant(2)
    w0 = ClosedPoint.rational(field, field.zero())
    w1 = ClosedPoint.rational(field, field.one())
    D = PolyhedralDivisor(field, A1, sigma, {
        w0: Polyhedron.from_points([(F(1, 2), F(0))], sigma),
        w1: Polyhedron.from_points([(F(1, 2), F(0)), (F(0), F(1))], sigma),
    })
    col = Coloring(D, {w0: (F(1, 2), F(0)), w1: (F(0), F(1))}, w0)
    return D, col


def test_coloring_validate():
    D, col = hyperbolic_w25(lambda_field(2), "t^2+l")
    assert coloring_validate(col).ok
    # marking a non-vertex fails clause (iii)
    bad = Coloring(D, {col.y0: (F(1, 7),)}, col.y0)
    rep = coloring_validate(bad)
    assert not rep.ok
    assert any(v.startswith("(iii)") for v in rep.violations)


def test_coloring_v_deg():
    D, col = hyperbolic_w25(lambda_field(2), "t^2+l")
    assert col.v_deg() == (F(1, 5),)


def test_associated_cones_hyperbolic():
    D, col = hyperbolic_w25(lambda_field(2), "t^2+l")
    cones = associated_cones(col)
    assert (cones.d, cones.ell, cones.u) == (5, 5, 0)
    assert cones.distinguished_ray == (1, 5)
    assert sorted(cones.tau_tilde.rays) == [(1, 0), (1, 5)]
    assert cones.omega.contains((1,)) and not cones.omega.contains((-1,))


def test_associated_cones_rank2():
    D, col = rank2_ramified(PrimeField(2))
    cones = associated_cones(col)
    assert (cones.d, cones.ell, cones.u) == (2, 1, 1)
    assert cones.distinguished_ray == (1, 0, 2)
    assert sorted(cones.tau_tilde.rays) == [(0, 1, 0), (1, -2, 0), (1, 0, 2)]
    assert sorted(cones.omega.rays) == [(1, 0), (2, 1)]


def test_demazure_root_check():
    D, col = hyperbolic_w25(lambda_field(2), "t^2+l")
    cones = associated_cones(col)
    assert demazure_root_check(cones.tau_tilde, cones.distinguished_ray,
                               (4, F(-1)))
    assert not demazure_root_check(cones.tau_tilde, cones.distinguished_ray,
                                   (4, F(-2)))
    assert not demazure_root_check(cones.tau_tilde, cones.distinguished_ray,
                                   (-1, F(-1)))


def test_demazure_root_check_rank2():
    D, col = rank2_ramified(PrimeField(2))
    cones = associated_cones(col)
    assert demazure_root_check(cones.tau_tilde, cones.distinguished_ray,
                               (1, 0, F(-1)))


def test_demazure_roots_enumerate():
    D, col = hyperbolic_w25(lambda_field(2), "t^2+l")
    cones = associated_cones(col)
    roots = demazure_roots_enumerate(cones.tau_tilde,
                                     cones.distinguished_ray, 4, cones.d)
    assert (4, F(-1)) in roots
    for r in roots:
        assert demazure_root_check(cones.tau_tilde,
                                   cones.distinguished_ray, r)


def test_coherent_dichotomy_hyperbolic():
    K = lambda_field(2)
    D, col = hyperbolic_w25(K, "t^2+l")
    theta = CoherentFamily(col, (1,), (2,), (K.one(),))
    assert coherent_validate(theta).ok

    F2 = PrimeField(2)
    D2, col2 = hyperbolic_w25(F2, "t+1")
    theta2 = CoherentFamily(col2, (1,), (2,), (F2.one(),))
    rep = coherent_validate(theta2)
    assert not rep.ok
    assert any(v.startswith("(v)") for v in rep.violations)


def test_coherent_dichotomy_rank2():
    F2 = PrimeField(2)
    D, col = rank2_ramified(F2)
    theta = CoherentFamily(col, (1, 0), (0,), (F2.one(),))
    assert coherent_validate(theta).ok

    DQ, colQ = rank2_ramified(Q)
    thetaQ = CoherentFamily(colQ, (1, 0), (1,), (Q.one(),))
    rep = coherent_validate(thetaQ)
    assert not rep.ok


def test_coherent_s_sequence_rules():
    K = lambda_field(2)
    D, col = hyperbolic_w25(K, "t^2+l")
    # s must be strictly increasing
    bad = CoherentFamily(col, (1,), (2, 2), (K.one(), K.one()))
    assert not coherent_validate(bad).ok
    # lambda entries must be nonzero
    bad2 = CoherentFamily(col, (1,), (2,), (K.zero(),))
    assert not coherent_validate(bad2).ok


def test_coherent_rejects_fractional_lifted_root():
    # single vertex (0, -1/3): the lifted candidate for e = (2, 2) has last
    # coordinate 5/3, outside the lattice, so no operator can descend
    F3 = PrimeField(3)
    sigma = Cone.zero(2)
    y0 = ClosedPoint.rational(F3, F3.zero())
    D = PolyhedralDivisor(F3, A1, sigma, {
        y0: Polyhedron.from_points([(F(0), F(-1, 3))], sigma)})
    col = Coloring(D, {y0: (F(0), F(-1, 3))}, y0)
    theta = CoherentFamily(col, (2, 2), (1,), (F3.one(),))
    rep = coherent_validate(theta)
    assert not rep.ok
    assert any("lattice" in v for v in rep.violations)


def test_floor_conditions_match_vertex_conditions():
    K = lambda_field(2)
    D, col = hyperbolic_w25(K, "t^2+l")
    theta = CoherentFamily(col, (1,), (2,), (K.one(),))
    assert floor_condition_check(theta, 12).ok

    F2 = PrimeField(2)
    D2, col2 = hyperbolic_w25(F2, "t+1")
    theta2 = CoherentFamily(col2, (1,), (2,), (F2.one(),))
    rep = floor_condition_check(theta2, 12)
    assert not rep.ok


def _floor_condition_check_per_weight(theta, m_bound):
    """Reference: the floor conditions with every polyhedron looked up and
    minimized again at each weight."""
    rep = Report("floor conditions")
    c = theta.coloring
    div = c.divisor
    p = div.field.char_exponent
    cones = associated_cones(c)
    d, pu = cones.d, p ** cones.u
    q = p ** theta.s[0]
    qe = tuple(q * x for x in vec(theta.e))
    dual = div.tail.dual()
    v0 = c.vertex(c.y0)
    v_deg = c.v_deg()

    def h_at(y, m, vy):
        return div.polyhedron_at(y).minimize(m) - dot(m, vy)

    for m in lattice_box(div.rank, m_bound):
        if not dual.contains(m):
            continue
        m2 = vadd(vec(m), qe)
        if not dual.contains(m2):
            continue
        for y in c.colored_points():
            if y == c.y0:
                continue
            eps = 1 if y.is_infinity else insep_profile(y).epsilon
            vy = c.vertex(y)
            a, b = h_at(y, vec(m), vy), h_at(y, m2, vy)
            if b != 0 and floor(pu * eps * b) - floor(pu * eps * a) < 1:
                rep.fail(f"(4): m={m} at [{y.to_str()}]: "
                         f"{floor(pu * eps * b)} - {floor(pu * eps * a)} < 1")
        h0a = div.polyhedron_at(c.y0).minimize(vec(m))
        h0b = div.polyhedron_at(c.y0).minimize(m2)
        if h0b != dot(m2, v0):
            if floor(d * h0b) - floor(d * h0a) < 1 + d * dot(qe, v0):
                rep.fail(f"(5): m={m}: {floor(d * h0b)} - {floor(d * h0a)} "
                         f"< {1 + d * dot(qe, v0)}")
        if div.curve == P1:
            ga = div.polyhedron_at(c.y_infinity).minimize(vec(m)) \
                + dot(vec(m), v_deg)
            gb = div.polyhedron_at(c.y_infinity).minimize(m2) + dot(m2, v_deg)
            if floor(d * gb) - floor(d * ga) < -1:
                rep.fail(f"(6): m={m}: {floor(d * gb)} - {floor(d * ga)} < -1")
    return rep


def test_floor_condition_check_matches_per_weight_reference():
    rng = random.Random(23)
    failing = 0
    for field in (Q, PrimeField(2), PrimeField(3)):
        for curve in (A1, P1):
            drawn = 0
            while drawn < 8:
                theta = _random_family(rng, field, curve, rng.choice([1, 2]))
                if theta is None:
                    continue
                drawn += 1
                for m_bound in (3, 6):
                    want = _floor_condition_check_per_weight(theta, m_bound)
                    got = floor_condition_check(theta, m_bound)
                    assert got.to_dict() == want.to_dict(), theta.describe()
                    failing += not want.ok
    assert failing > 0


def test_enumerate_coherent_hyperbolic():
    K = lambda_field(2)
    D, col = hyperbolic_w25(K, "t^2+l")
    found = enumerate_coherent(D, 1, 2, [K.one()])
    assert len(found) == 1
    theta = found[0]
    assert theta.e == (1,) and theta.s == (2,)

    F2 = PrimeField(2)
    D2, _ = hyperbolic_w25(F2, "t+1")
    assert enumerate_coherent(D2, 1, 2, [F2.one()]) == []


def test_candidate_colorings():
    F2 = PrimeField(2)
    D, col = rank2_ramified(F2)
    found = candidate_colorings(D)
    assert any(c.y0 == col.y0 and c.vertices == col.vertices for c in found)


def test_equivalence_probe_small():
    for p in (1, 2):
        rep = equivalence_probe(10, p, A1, 1, seed=3)
        assert rep.ok, rep.violations
        assert rep.notes[0] == "10 instances agreed"
    rep = equivalence_probe(5, 2, P1, 2, seed=3)
    assert rep.ok, rep.violations
    assert rep.notes == ["5 instances agreed",
                         "skipped 0 instances (ClassifierError)"]


def test_toricity():
    sigma = Cone.from_generators([(1,)], 1)
    y0 = ClosedPoint.rational(Q, Q.zero())
    y1 = ClosedPoint.rational(Q, Q.one())
    one_pt = PolyhedralDivisor(Q, A1, sigma, {
        y0: Polyhedron.from_points([(F(1, 2),)], sigma)})
    assert toricity_check(one_pt).ok
    two_pt = PolyhedralDivisor(Q, A1, sigma, {
        y0: Polyhedron.from_points([(F(1, 2),)], sigma),
        y1: Polyhedron.from_points([(F(1, 3),)], sigma)})
    assert not toricity_check(two_pt).ok
    D, _ = hyperbolic_w25(lambda_field(2), "t^2+l")
    rep = toricity_check(D)
    assert rep.ok and any("not applicable" in n for n in rep.notes)
