import random
from fractions import Fraction as F
from itertools import compress, count, repeat
from math import floor

import pytest

from ghz.classifier import (ClassifierError, CoherentFamily, Coloring,
                            _below, _random_family, _vertex_conditions_only,
                            _vertex_table, associated_cones,
                            candidate_colorings, coherent_validate,
                            coloring_validate, demazure_root_check,
                            demazure_roots_enumerate, enumerate_coherent,
                            equivalence_probe, floor_condition_check,
                            toricity_check)
from ghz.curves import A1, P1, ClosedPoint, point_validate
from ghz.fields import PrimeField, Rationals
from ghz.geometry import (Cone, GeometryError, dot, fmt_ratio, fmt_vec,
                          lattice_box, vadd, vsub)
from ghz.polynomials import lambda_field, parse_poly
from ghz.reports import Report
from ghz.tvariety import DivisorError, PolyhedralDivisor

from helpers import cone_dim, orthant, rational, rational_divisor, vec

Q = Rationals()


def hyperbolic_w25(field, second):
    sigma = Cone.zero(1)
    y0 = ClosedPoint.rational(field, field.zero())
    y = point_validate(parse_poly(second, field), trusted=True)
    D, vertices = rational_divisor(
        field, A1, sigma, {y0: [(F(1, 5),)], y: [(F(0),), (F(1, 5),)]},
        {y0: (F(1, 5),), y: (F(0),)})
    col = Coloring(D, vertices, y0)
    return D, col


def rank2_ramified(field):
    sigma = orthant(2)
    w0 = ClosedPoint.rational(field, field.zero())
    w1 = ClosedPoint.rational(field, field.one())
    D, vertices = rational_divisor(
        field, A1, sigma,
        {w0: [(F(1, 2), F(0))], w1: [(F(1, 2), F(0)), (F(0), F(1))]},
        {w0: (F(1, 2), F(0)), w1: (F(0), F(1))})
    col = Coloring(D, vertices, w0)
    return D, col


def test_coloring_validate():
    D, col = hyperbolic_w25(lambda_field(2), "t^2+l")
    assert coloring_validate(col).ok
    # marking a non-vertex (2/5 over the den 5) fails clause (iii)
    assert D.den == 5
    bad = Coloring(D, {col.y0: (2,)}, col.y0)
    rep = coloring_validate(bad)
    assert not rep.ok
    assert any(v.startswith("(iii)") for v in rep.violations)


def test_coloring_v_deg():
    D, col = hyperbolic_w25(lambda_field(2), "t^2+l")
    assert rational(col.v_deg(), D.den) == (F(1, 5),)


def test_associated_cones_hyperbolic():
    D, col = hyperbolic_w25(lambda_field(2), "t^2+l")
    cones = associated_cones(col)
    assert (cones.d, cones.ell, cones.u) == (5, 5, 0)
    assert cones.distinguished_ray == (1, 5)
    assert sorted(cones.tau_tilde.rays) == [(1, 0), (1, 5)]
    assert cones.tau.dual().contains((1,)) \
        and not cones.tau.dual().contains((-1,))


def test_associated_cones_rank2():
    D, col = rank2_ramified(PrimeField(2))
    cones = associated_cones(col)
    assert (cones.d, cones.ell, cones.u) == (2, 1, 1)
    assert cones.distinguished_ray == (1, 0, 2)
    assert sorted(cones.tau_tilde.rays) == [(0, 1, 0), (1, -2, 0), (1, 0, 2)]
    assert sorted(cones.tau.dual().rays) == [(1, 0), (2, 1)]


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


def test_lifted_cone_is_pointed_with_the_marked_ray():
    """What the deleted guards of associated_cones and the root functions
    relied on, on every valid coloring: tau_tilde has no lineality, rho =
    primitive((v0, den)) is one of its extreme rays with last coordinate d,
    and (0, ..., 0, -1/d) is a root, the only one at box 0."""
    from ghz.scenarios import builtin_examples, load_builtin

    colorings = [load_builtin(name).coloring for name in builtin_examples()]
    rng = random.Random(5)
    for field in (Q, PrimeField(2), PrimeField(3)):
        for curve in (A1, P1):
            for rank in (1, 2):
                kept = 0
                while kept < 3:
                    theta = _random_family(rng, field, curve, rank)
                    if theta is not None:
                        colorings.append(theta.coloring)
                        kept += 1
    colorings = [c for c in colorings if c is not None]
    assert len(colorings) == 3 + 36
    for c in colorings:
        assert coloring_validate(c).ok
        cones = associated_cones(c)
        tilde, rho, d = cones.tau_tilde, cones.distinguished_ray, cones.d
        assert not tilde.lineality
        assert rho in tilde.rays and rho[-1] == d
        assert demazure_roots_enumerate(tilde, rho, 0, d) \
            == [(0,) * c.divisor.rank + (F(-1, d),)]


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
    D, vertices = rational_divisor(F3, A1, sigma, {y0: [(F(0), F(-1, 3))]},
                                   {y0: (F(0), F(-1, 3))})
    col = Coloring(D, vertices, y0)
    theta = CoherentFamily(col, (2, 2), (1,), (F3.one(),))
    rep = coherent_validate(theta)
    assert not rep.ok
    assert any("lattice" in v for v in rep.violations)


def test_floor_conditions_match_vertex_conditions():
    K = lambda_field(2)
    D, col = hyperbolic_w25(K, "t^2+l")
    theta = CoherentFamily(col, (1,), (2,), (K.one(),))
    rep = floor_condition_check(theta, 12)
    assert rep.ok
    assert rep.to_dict() == _floor_condition_check_per_weight(
        theta, 12).to_dict()

    F2 = PrimeField(2)
    D2, col2 = hyperbolic_w25(F2, "t+1")
    theta2 = CoherentFamily(col2, (1,), (2,), (F2.one(),))
    rep = floor_condition_check(theta2, 12)
    assert not rep.ok
    # the violation strings, in order, are the reference's
    assert rep.to_dict() == _floor_condition_check_per_weight(
        theta2, 12).to_dict()


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
    v0 = rational(c.vertex(c.y0), div.den)
    v_deg = rational(c.v_deg(), div.den)

    def h_at(y, m, vy):
        return div.polyhedron_at(y).minimize(m) / div.den - dot(m, vy)

    for m in lattice_box(div.rank, m_bound):
        if not dual.contains(m):
            continue
        m2 = vadd(vec(m), qe)
        if not dual.contains(m2):
            continue
        for y in c.colored_points():
            if y == c.y0:
                continue
            eps = y.epsilon
            vy = rational(c.vertex(y), div.den)
            a, b = h_at(y, vec(m), vy), h_at(y, m2, vy)
            if b != 0 and floor(pu * eps * b) - floor(pu * eps * a) < 1:
                rep.fail(f"(4): m={m} at [{y.to_str()}]: "
                         f"{floor(pu * eps * b)} - {floor(pu * eps * a)} < 1")
        h0a = div.polyhedron_at(c.y0).minimize(vec(m)) / div.den
        h0b = div.polyhedron_at(c.y0).minimize(m2) / div.den
        if h0b != dot(m2, v0):
            if floor(d * h0b) - floor(d * h0a) < 1 + d * dot(qe, v0):
                rep.fail(f"(5): m={m}: {floor(d * h0b)} - {floor(d * h0a)} "
                         f"< {1 + d * dot(qe, v0)}")
        if div.curve == P1:
            ga = div.polyhedron_at(c.y_infinity).minimize(vec(m)) / div.den \
                + dot(vec(m), v_deg)
            gb = div.polyhedron_at(c.y_infinity).minimize(m2) / div.den \
                + dot(m2, v_deg)
            if floor(d * gb) - floor(d * ga) < -1:
                rep.fail(f"(6): m={m}: {floor(d * gb)} - {floor(d * ga)} < -1")
    return rep


def test_floor_condition_check_matches_per_weight_reference():
    rng = random.Random(23)
    failing = 0
    # instances per (curve, tail kind): a zero tail has the whole space as
    # its dual, a ray tail has a dual whose rays are not the tail's
    kinds = {(curve, kind): 0 for curve in (A1, P1)
             for kind in ("zero", "ray")}
    for field in (Q, PrimeField(2), PrimeField(3)):
        for curve in (A1, P1):
            drawn = 0
            while drawn < 8:
                theta = _random_family(rng, field, curve, rng.choice([1, 2]))
                if theta is None:
                    continue
                drawn += 1
                tail = theta.coloring.divisor.tail
                kinds[curve, "ray" if tail.rays else "zero"] += 1
                for m_bound in (3, 6):
                    want = _floor_condition_check_per_weight(theta, m_bound)
                    got = floor_condition_check(theta, m_bound)
                    assert got.to_dict() == want.to_dict(), theta.describe()
                    failing += not want.ok
    assert failing > 0
    assert kinds[A1, "zero"] and kinds[A1, "ray"] and kinds[P1, "ray"], kinds
    # over P1 a zero tail forces deg D = {0}, which has 0 as a vertex, so
    # no valid instance has one
    assert kinds[P1, "zero"] == 0, kinds


def test_floor_condition_check_matches_reference_at_probe_bound():
    # the probe's own bound: 12 plus one full step of p^{s1}e
    rng = random.Random(63)
    compared = 0
    clauses = set()
    for field in (Q, PrimeField(2), PrimeField(3)):
        for curve in (A1, P1):
            for rank in (1, 2):
                theta = None
                while theta is None:
                    theta = _random_family(rng, field, curve, rank)
                p = field.char_exponent
                step = max(abs(p ** theta.s[0] * x) for x in theta.e)
                want = _floor_condition_check_per_weight(theta, 12 + step)
                got = floor_condition_check(theta, 12 + step)
                assert got.to_dict() == want.to_dict(), theta.describe()
                compared += 1
                clauses.update(v[:3] for v in want.violations)
    assert compared == 12 and clauses == {"(4)", "(5)", "(6)"}, clauses


def test_floor_condition_check_matches_reference_at_the_widest_probe_box():
    # the probe's largest box: p = 3, s = (2,), |e_i| = 2 at rank 2 make a
    # step of 18, so the bound is 12 + 18 = 30 (61^2 weights)
    F3 = PrimeField(3)
    rng = random.Random(0)
    clauses = set()
    for curve in (A1, P1):
        theta = None
        while theta is None:
            theta = _random_family(rng, F3, curve, 2)
        for e in ((2, 2), (2, -2), (-2, 2), (-2, -2)):
            wide = CoherentFamily(theta.coloring, e, (2,), theta.lam)
            want = _floor_condition_check_per_weight(wide, 30)
            got = floor_condition_check(wide, 30)
            assert got.to_dict() == want.to_dict(), wide.describe()
            clauses.update(v[:3] for v in want.violations)
    assert clauses == {"(4)", "(5)", "(6)"}, clauses


def test_below_takes_the_bits_of_randint():
    """The sampler's integers come from raw getrandbits draws; on every
    range it draws they are randint's values and leave the generator in
    randint's state, alone and interleaved."""
    # coordinates a and b, the tail's 0/1 ray, the vertex count, the point
    # count over 2 and 3 points, e and s
    ranges = [(-2, 2), (1, 3), (0, 1), (1, 2), (0, 2)]
    for seed in range(100):
        for lo, hi in ranges:
            ref, rng = random.Random(seed), random.Random(seed)
            want = [ref.randint(lo, hi) for _ in range(40)]
            assert [lo + _below(rng.getrandbits, hi - lo + 1)
                    for _ in range(40)] == want
            assert rng.getstate() == ref.getstate()
            assert [_below(rng.getrandbits, hi - lo + 1)
                    for _ in range(40)] == \
                [ref.randrange(hi - lo + 1) for _ in range(40)]
            assert rng.getstate() == ref.getstate()
        ref, rng = random.Random(seed), random.Random(seed)
        order = random.Random(-seed).choices(ranges, k=200)
        assert [lo + _below(rng.getrandbits, hi - lo + 1)
                for lo, hi in order] == [ref.randint(*r) for r in order]
        assert rng.getstate() == ref.getstate()


def _reference_random_family(rng, field, curve, rank):
    """Reference: the sampler that builds every support polyhedron and
    leaves all rejections to `validate`."""
    def rand_vertex():
        return tuple(F(rng.randint(-2, 2), rng.randint(1, 3))
                     for _ in range(rank))

    tail = Cone.zero(rank) if rng.random() < 0.5 else Cone.from_generators(
        [tuple(rng.randint(0, 1) for _ in range(rank)) or (1,) * rank], rank)
    if cone_dim(tail.dual()) != rank:
        tail = Cone.zero(rank)
    consts = list(range(field.p)) if isinstance(field, PrimeField) \
        else [0, 1, 2]
    pts = [ClosedPoint.rational(field, field.from_int(c)) for c in consts[:3]]
    support = {}
    for y in pts[:rng.randint(1, min(3, len(pts)))]:
        support[y] = [rand_vertex() for _ in range(rng.randint(1, 2))]
    if curve == P1:
        support[ClosedPoint.infinity()] = [rand_vertex()]
    div, _ = rational_divisor(field, curve, tail, support)
    y_inf = ClosedPoint.infinity() if curve == P1 else None
    if not div.validate().ok:
        return None
    try:
        fan = div.linearity_fan(y_inf)
    except (DivisorError, GeometryError):
        return None
    cone, v_deg, assign = rng.choice(fan)
    y0 = rng.choice([y for y in support if not y.is_infinity])
    vertices = dict(assign)
    for y, v in vertices.items():
        if y != y0 and any(x % div.den for x in v):
            return None
    coloring = Coloring(div, vertices, y0, y_inf)
    if not coloring_validate(coloring).ok:
        return None
    e = tuple(rng.randint(-2, 2) for _ in range(rank))
    p = field.char_exponent
    s = (1,) if p == 1 else (rng.randint(0, 2),)
    return CoherentFamily(coloring, e, s, (field.one(),) * len(s))


def _draw_key(theta):
    """The draw with every vertex read as a rational: the sampler holds its
    vertices over the den 6, the reference over the lcm of the drawn
    denominators."""
    if theta is None:
        return None
    c = theta.coloring
    den = c.divisor.den
    support = {y: ([rational(v, den) for v in p.vertices], p.tail)
               for y, p in c.divisor.support.items()}
    vertices = {y: rational(v, den) for y, v in c.vertices.items()}
    return (theta.describe(), c.divisor.tail, support, vertices, c.y0,
            c.y_infinity)


def test_sampler_matches_build_then_validate_reference(monkeypatch):
    validated = []
    real_validate = PolyhedralDivisor.validate

    def recording(div):
        rep = real_validate(div)
        validated.append(rep)
        return rep

    monkeypatch.setattr(PolyhedralDivisor, "validate", recording)
    kept = 0
    p1_rejections = {"zero tail": 0, "raw points": 0, "0 is a vertex": 0}
    peek = random.Random()
    for field in (Q, PrimeField(2), PrimeField(3)):
        for curve in (A1, P1):
            for rank in (1, 2):
                ref_rng, rng = random.Random(47), random.Random(47)
                for _ in range(60):
                    # the reference's first draws decide a zero tail
                    peek.setstate(ref_rng.getstate())
                    zero_tail = peek.random() < 0.5 or not any(
                        [peek.randint(0, 1) for _ in range(rank)])
                    want = _reference_random_family(ref_rng, field, curve,
                                                    rank)
                    validated.clear()
                    got = _random_family(rng, field, curve, rank)
                    assert _draw_key(got) == _draw_key(want)
                    assert rng.getstate() == ref_rng.getstate()
                    # valid by construction: the sampler does not check it
                    assert got is None or coloring_validate(got.coloring).ok
                    kept += got is not None
                    if curve == P1 and zero_tail:
                        # rejected before any polyhedron is built
                        assert got is None and not validated
                        p1_rejections["zero tail"] += 1
                    elif curve == P1 and got is None:
                        if not validated:
                            p1_rejections["raw points"] += 1
                        elif any("0 is a vertex" in v
                                 for v in validated[0].violations):
                            p1_rejections["0 is a vertex"] += 1
    assert kept > 0
    assert all(p1_rejections.values()), p1_rejections


def _fmt_vec(v):
    return "(" + ", ".join(str(x) for x in v) + ")"


def _vertex_conditions_reference(theta):
    """Reference: the vertex inequalities (v)/(vi)/(vii) on the rational
    vertices, with d and u read from the associated cones."""
    rep = Report("vertex conditions")
    c = theta.coloring
    div = c.divisor

    def vertices(y):
        return [rational(v, div.den) for v in div.polyhedron_at(y).vertices]

    p = div.field.char_exponent
    cones = associated_cones(c)
    s = tuple(theta.s)
    v0 = rational(c.vertex(c.y0), div.den)
    q = p ** s[0]
    qe = tuple(q * x for x in vec(theta.e))
    d = cones.d
    pu = p ** cones.u
    for y in c.colored_points():
        if y == c.y0:
            continue
        eps = y.epsilon
        vy = rational(c.vertex(y), div.den)
        rhs = 1 + eps * pu * dot(qe, vy)
        for v in vertices(y):
            if v == vy:
                continue
            if eps * pu * dot(qe, v) < rhs:
                rep.fail(f"(v): at [{y.to_str()}] vertex {_fmt_vec(v)}: "
                         f"{eps * pu * dot(qe, v)} < {rhs}")
    rhs0 = 1 + d * dot(qe, v0)
    for v in vertices(c.y0):
        if v == v0:
            continue
        if d * dot(qe, v) < rhs0:
            rep.fail(f"(vi): at [{c.y0.to_str()}] vertex {_fmt_vec(v)}: "
                     f"{d * dot(qe, v)} < {rhs0}")
    if div.curve == P1:
        rhs_inf = -1 - d * dot(qe, rational(c.v_deg(), div.den))
        for v in vertices(c.y_infinity):
            if d * dot(qe, v) < rhs_inf:
                rep.fail(f"(vii): at infinity vertex {_fmt_vec(v)}: "
                         f"{d * dot(qe, v)} < {rhs_inf}")
    return rep


def test_vertex_conditions_match_cone_reference():
    rng = random.Random(31)
    draws = failing = 0
    for field in (Q, PrimeField(2), PrimeField(3)):
        for curve in (A1, P1):
            for rank in (1, 2):
                kept = 0
                while kept < 4:
                    theta = _random_family(rng, field, curve, rank)
                    if theta is None:
                        continue
                    kept += 1
                    want = _vertex_conditions_reference(theta)
                    got = _vertex_conditions_only(theta)
                    assert got.to_dict() == want.to_dict(), theta.describe()
                    # coherent_validate reports the same inequalities
                    full = coherent_validate(theta).violations
                    assert full[len(full) - len(want.violations):] \
                        == want.violations
                    failing += not want.ok
                draws += kept
    assert draws == 48 and failing > 0


def _eager_vertex_conditions(theta):
    """Reference formatter: the vertex inequalities formatted as each
    failing vertex is found, as the check did before it deferred them."""
    rep = Report("vertex conditions")
    c = theta.coloring
    div = c.divisor
    den = div.den
    d, qe, v0, points = _vertex_table(theta)

    def check(clause, verts, scale, rhs, skip=None):
        for v in verts:
            if v != skip and scale * dot(qe, v) < rhs:
                rep.fail(f"{clause} vertex {fmt_vec(v, den)}: "
                         f"{fmt_ratio(scale * dot(qe, v), den)} < "
                         f"{fmt_ratio(rhs, den)}")

    for y, scale, verts, vy in points:
        check(f"(v): at [{y.to_str()}]", verts, scale,
              den + scale * dot(qe, vy), vy)
    check(f"(vi): at [{c.y0.to_str()}]", div.polyhedron_at(c.y0).vertices, d,
          den + d * dot(qe, v0), v0)
    if div.curve == P1:
        check("(vii): at infinity", div.polyhedron_at(c.y_infinity).vertices,
              d, -den - d * dot(qe, c.v_deg()))
    return rep


def _eager_floor_conditions(theta, m_bound):
    """Reference formatter: the floor conditions with every witness
    formatted, and the weight box listed, before the report is returned, as
    the check did before it deferred them."""
    rep = Report("floor conditions")
    c = theta.coloring
    div = c.divisor
    den = div.den
    d, qe, v0, points = _vertex_table(theta)
    qv0 = dot(qe, v0)
    span = range(-m_bound, m_bound + 1)

    def column(w):
        col = [0]
        for x in w:
            col = [a + b for b in [x * i for i in span] for a in col]
        return col

    keep = [True] * len(span) ** div.rank
    for r in div.tail.rays:
        t = max(0, -dot(qe, r))
        keep = [k and x >= t for k, x in zip(keep, column(r))]
    clauses = [(4, f" at [{y.to_str()}]", scale, verts, vy, 1, repeat(0))
               for y, scale, verts, vy in points]
    clauses.append((5, "", d, div.polyhedron_at(c.y0).vertices, None,
                    1 + d * qv0 // den,
                    [h + qv0 for h in compress(column(v0), keep)]))
    if div.curve == P1:
        clauses.append((6, "", d, div.polyhedron_at(c.y_infinity).vertices,
                        tuple(-x for x in c.v_deg()), -1, repeat(None)))
    fails = []
    for k, (n, where, s, verts, shift, rhs, off) in enumerate(clauses):
        ws = [vsub(v, shift) for v in verts] if shift else verts
        cols = [list(compress(column(w), keep)) for w in ws]
        qcols = [[x + q for x in col]
                 for q, col in zip([dot(qe, w) for w in ws], cols)]
        lo, hi = (cols[0], qcols[0]) if len(ws) == 1 else \
            (map(min, *cols), map(min, *qcols))
        fails += [(i, k, n, where, s * b // den, s * a // den, rhs)
                  for i, a, b, o in zip(count(), lo, hi, off)
                  if b != o and s * b // den - s * a // den < rhs]
    box = list(compress(lattice_box(div.rank, m_bound), keep)) if fails else ()
    for i, _, n, where, fb, fa, rhs in sorted(fails):
        rep.fail(f"({n}): m={box[i]}{where}: {fb} - {fa} < {rhs}")
    return rep


def _failing_draws():
    """(family, the probe's bound for it): three seeded draws that fail the
    floor conditions for each of Q, F2 and F3, A1 and P1, ranks 1 and 2."""
    rng = random.Random(41)
    out = []
    for field in (Q, PrimeField(2), PrimeField(3)):
        for curve in (A1, P1):
            for rank in (1, 2):
                found = 0
                while found < 3:
                    theta = _random_family(rng, field, curve, rank)
                    if theta is None:
                        continue
                    p = field.char_exponent
                    bound = 12 + max(abs(x) for x in theta.e) * p ** theta.s[0]
                    if not floor_condition_check(theta, bound).ok:
                        out.append((theta, bound))
                        found += 1
    return out


def _probe_checks(monkeypatch, *args):
    """(family, bound) of every floor check that equivalence_probe(*args)
    runs, and its report."""
    import ghz.classifier as classifier

    seen = []

    def recording(theta, m_bound):
        seen.append((theta, m_bound))
        return floor_condition_check(theta, m_bound)

    with monkeypatch.context() as m:
        m.setattr(classifier, "floor_condition_check", recording)
        rep = equivalence_probe(*args)
    return seen, rep


def test_deferred_witnesses_match_the_eager_formatters(monkeypatch):
    """Deferred witnesses read as the eager ones, text and order, on seeded
    failing draws and on the probe-p1 benchmark's rank-2 seed-11 draws."""
    draws = _failing_draws()
    wide = []
    for p in (1, 2, 3):
        seen, rep = _probe_checks(monkeypatch, 1, p, P1, 2, 12, 11)
        assert rep.ok and len(seen) == 1
        wide += seen
    for theta, bound in draws + wide:
        for got, want in ((_vertex_conditions_only(theta),
                           _eager_vertex_conditions(theta)),
                          (floor_condition_check(theta, bound),
                           _eager_floor_conditions(theta, bound))):
            assert not got.ok and not want.ok, theta.describe()
            assert got.violations == want.violations, theta.describe()
            assert got == want and got.summary() == want.summary()
    assert len(draws) == 36
    # the probe's rank-2 draws fail on hundreds of weights
    assert all(len(_eager_floor_conditions(*d).violations) > 200
               for d in wide)


def test_coherent_validate_keeps_eager_and_deferred_order(monkeypatch):
    """coherent_validate merges the eager (iii) witnesses and the deferred
    vertex ones in the order the eager formatter gives."""
    import ghz.classifier as classifier

    mixed = 0
    for theta, _ in _failing_draws():
        got = coherent_validate(theta)
        with monkeypatch.context() as m:
            m.setattr(classifier, "_vertex_conditions_only",
                      _eager_vertex_conditions)
            want = coherent_validate(theta)
        assert got.violations == want.violations, theta.describe()
        assert got == want
        mixed += want.violations[0].startswith("(iii): lifted") \
            and want.violations[-1].startswith(("(v)", "(vi)", "(vii)"))
    assert mixed > 0


def test_an_agreeing_probe_formats_no_witness(monkeypatch):
    """On the probe-p1 benchmark's grid (rank 1 with 20 trials, rank 2 with
    seed 11) the probe reads only the verdicts of the checks: it formats no
    vector, ratio or weight box, though many checks fail."""
    import ghz.classifier as classifier

    calls = {"fmt_vec": 0, "fmt_ratio": 0, "lattice_box": 0}

    def counted(name):
        real = getattr(classifier, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(classifier, name, counted(name))
    checks = []
    for p in (1, 2, 3):
        for rank, trials in ((1, 20), (2, 1)):
            seen, rep = _probe_checks(monkeypatch, trials, p, P1, rank, 12,
                                      11)
            assert rep.ok, rep.violations
            checks += seen
    assert calls == {"fmt_vec": 0, "fmt_ratio": 0, "lattice_box": 0}
    failing = [(theta, bound) for theta, bound in checks
               if not floor_condition_check(theta, bound).ok]
    assert len(checks) == 63 and len(failing) > 10
    # reading the witnesses formats them, through the same names
    theta, bound = failing[0]
    assert floor_condition_check(theta, bound).violations
    assert _vertex_conditions_only(theta).violations
    assert calls["lattice_box"] == 1 and calls["fmt_vec"] > 0 \
        and calls["fmt_ratio"] > 0


def test_enumerate_coherent_formats_no_witness(monkeypatch):
    """classify's enumeration reads only the verdict of each candidate
    family: on char2-ramified, where all but one candidate fail (iii) or
    the vertex conditions, it formats no vector and no ratio."""
    import ghz.classifier as classifier
    import ghz.geometry as geometry
    from ghz.scenarios import load_builtin

    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for module in (classifier, geometry):
        for name in ("fmt_vec", "fmt_ratio"):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
    sc = load_builtin("char2-ramified")
    found = enumerate_coherent(sc.divisor, sc.bounds["e_box"],
                               sc.bounds["s_max"], sc.lambda_sample)
    assert len(found) == 1 and calls == []
    # reading a rejected family's witnesses formats them, through the same
    # names, lifted vectors and vertices alike
    rejected = [coherent_validate(CoherentFamily(sc.coloring, e, s, lam))
                for e in ((1, 1), (0, 1)) for s, lam in (((0,), (1,)),)]
    texts = [v for rep in rejected for v in rep.violations]
    assert any(v.startswith("(iii): lifted") for v in texts)
    assert any(v.startswith(("(v)", "(vi)")) for v in texts)
    assert "fmt_vec" in calls and "fmt_ratio" in calls


def test_probe_builds_no_associated_cones(monkeypatch):
    import ghz.classifier as classifier

    calls = []

    def counting(c):
        calls.append(c)
        return associated_cones(c)

    monkeypatch.setattr(classifier, "associated_cones", counting)
    assert equivalence_probe(5, 2, P1, 2, seed=3).ok
    K = lambda_field(2)
    D, col = hyperbolic_w25(K, "t^2+l")
    theta = CoherentFamily(col, (1,), (2,), (K.one(),))
    assert floor_condition_check(theta, 12).ok
    assert calls == []


# _random_family calls of equivalence_probe(10, p, curve, rank, seed=11),
# keyed by (p, curve, rank); the probe must keep drawing the same instances
PROBE_DRAWS = {
    (1, A1, 1): 11, (1, P1, 1): 213, (1, A1, 2): 24, (1, P1, 2): 4940,
    (2, A1, 1): 12, (2, P1, 1): 238, (2, A1, 2): 14, (2, P1, 2): 1656,
    (3, A1, 1): 11, (3, P1, 1): 205, (3, A1, 2): 21, (3, P1, 2): 4937,
}


def test_probe_draw_stream_is_pinned(monkeypatch):
    import ghz.classifier as classifier

    draws = []

    def counting(*args):
        draws.append(args)
        return _random_family(*args)

    monkeypatch.setattr(classifier, "_random_family", counting)
    for (p, curve, rank), want in PROBE_DRAWS.items():
        draws.clear()
        rep = equivalence_probe(10, p, curve, rank, seed=11)
        assert rep.ok, rep.violations
        assert len(draws) == want, (p, curve, rank)


def test_cascade_builds_each_stage_once(monkeypatch):
    """classify validates each candidate coloring's divisor once and builds
    the cones once per coloring; apply and verify build them once."""
    import ghz.classifier as classifier
    from ghz.cli import parse_args, run_command
    from ghz.engine import build_operator
    from ghz.scenarios import load_builtin

    calls = {"validate": 0, "cones": 0}
    validate = PolyhedralDivisor.validate

    def counting_validate(div):
        calls["validate"] += 1
        return validate(div)

    def counting_cones(c):
        calls["cones"] += 1
        return associated_cones(c)

    monkeypatch.setattr(PolyhedralDivisor, "validate", counting_validate)
    monkeypatch.setattr(classifier, "associated_cones", counting_cones)
    for name in ("char2-ramified", "w25-prime", "w25-imperfect"):
        sc = load_builtin(name, trust_irreducible=True)
        calls.update(validate=0, cones=0)
        run_command(sc, "classify",
                    parse_args(["classify", "--example", name]))
        assert calls == {"validate": 4, "cones": 1}, name
        if name != "w25-prime":
            for command in ("apply", "verify"):
                calls.update(cones=0)
                args = parse_args([command, "--example", name])
                assert run_command(sc, command, args).ok
                assert calls["cones"] == 1, (name, command)
            calls.update(cones=0)
            build_operator(sc.family)
            assert calls["cones"] == 1, name


def _enumerate_reference(div, e_bound, s_max, lam_sample, y_infinity):
    """enumerate_coherent as a filter of coherent_validate, which re-runs the
    whole cascade for every family of the grid; also the size of the grid."""
    from itertools import combinations, product

    p = div.field.char_exponent
    seqs = [(1,)] if p == 1 else [s for r in range(1, s_max + 2)
                                  for s in combinations(range(s_max + 1), r)]
    found = [CoherentFamily(c, tuple(e), s, lam)
             for c in candidate_colorings(div, y_infinity)
             for e in lattice_box(div.rank, e_bound)
             for s in seqs
             for lam in product(lam_sample, repeat=len(s))]
    return sorted((t for t in found if coherent_validate(t).ok),
                  key=lambda t: (t.e, t.s, t.describe())), len(found)


def test_enumerate_coherent_matches_the_cascade_filter():
    rng = random.Random(23)
    found = grid = 0
    for field in (Q, PrimeField(2), PrimeField(3)):
        lams = [(field.one(),)]
        if field.char_exponent == 3:
            lams.append((field.one(), field.from_int(2)))
        for curve in (A1, P1):
            for rank in (1, 2):
                for lam_sample in lams:
                    theta = None
                    while theta is None:
                        theta = _random_family(rng, field, curve, rank)
                    div = theta.coloring.divisor
                    y_inf = theta.coloring.y_infinity
                    s_max = 2 if len(lam_sample) == 1 else 1
                    got = enumerate_coherent(div, 1, s_max, lam_sample, y_inf)
                    want, size = _enumerate_reference(div, 1, s_max,
                                                      lam_sample, y_inf)
                    assert got == want, (field, curve, rank)
                    found += len(got)
                    grid += size
    assert 0 < found < grid


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
                         "drew 901: 896 rejected, 5 checked"]


def test_equivalence_probe_reports_its_draws(monkeypatch):
    """The probe's own accounting: every draw is rejected by the sampler or
    checked, and each check runs once per checked instance, called through
    the module (the benchmark counts draws and checks by wrapping these
    names). A check that raises is an internal failure, not a skip: it
    propagates out of the probe."""
    import ghz.classifier as classifier

    calls = {"draws": 0, "nones": 0, "vertex": 0, "floor": 0}

    def counting(*args):
        calls["draws"] += 1
        theta = _random_family(*args)
        calls["nones"] += theta is None
        return theta

    def counted(key, check):
        def wrapper(*args):
            calls[key] += 1
            return check(*args)
        return wrapper

    monkeypatch.setattr(classifier, "_random_family", counting)
    monkeypatch.setattr(classifier, "_vertex_conditions_only",
                        counted("vertex", _vertex_conditions_only))
    monkeypatch.setattr(classifier, "floor_condition_check",
                        counted("floor", floor_condition_check))
    rep = equivalence_probe(10, 2, P1, 1, seed=11)
    assert rep.ok, rep.violations
    assert calls["draws"] == calls["nones"] + 10
    assert calls["vertex"] == calls["floor"] == 10
    assert rep.notes == [
        "10 instances agreed",
        f"drew {calls['draws']}: {calls['nones']} rejected, 10 checked"]

    def raising(theta, m_bound):
        raise ClassifierError("internal failure")

    monkeypatch.setattr(classifier, "floor_condition_check", raising)
    with pytest.raises(ClassifierError, match="internal failure"):
        equivalence_probe(10, 2, P1, 1, seed=11)


def test_equivalence_probe_reports_a_disagreement(monkeypatch):
    """A floor check that fails where the vertex inequalities hold is a
    disagreement: the probe fails with the instance and both verdicts, and
    still counts every draw."""
    import ghz.classifier as classifier

    def failing(theta, m_bound):
        rep = floor_condition_check(theta, m_bound)
        if rep.ok:
            rep.fail("planted violation")
        return rep

    monkeypatch.setattr(classifier, "floor_condition_check", failing)
    rep = equivalence_probe(3, 2, A1, 1, seed=11)
    assert not rep.ok
    assert rep.violations == [
        "disagreement on e=(-2,) s=(2,) lambda=(1) y0=[t] over GF(2): "
        "vertex=True floor=False; ['planted violation']",
        "disagreement on e=(2,) s=(0,) lambda=(1) y0=[t + 1] over GF(2): "
        "vertex=True floor=False; ['planted violation']"]
    assert rep.notes == ["counterexample found",
                         "drew 3: 0 rejected, 3 checked"]


@pytest.mark.parametrize("p, curve, rank", [
    (2, "P2", 1), (2, A1, 5), (2, P1, 0), (0, A1, 1), (-3, A1, 1)],
    ids=["P2-1", "A1-5", "P1-0", "p=0", "p=-3"])
def test_equivalence_probe_refuses_what_it_cannot_draw(monkeypatch, p, curve,
                                                       rank):
    """A curve other than A1 and P1, a rank outside 1..MAX_RANK, or a
    characteristic p below 1 (p = 1 stands for Q) is refused before the
    first draw: over "P2" every draw is rejected and rank 5 is past what
    the geometry supports, so the probe would never finish, and p = 0 or
    -3 would silently draw over Q."""
    import ghz.classifier as classifier

    def no_draw(*args):
        raise AssertionError("the probe drew")

    monkeypatch.setattr(classifier, "_random_family", no_draw)
    with pytest.raises(ClassifierError, match="A1 or P1 at rank 1..4"):
        equivalence_probe(1, p, curve, rank, seed=1)


def test_toricity():
    sigma = Cone.from_generators([(1,)], 1)
    y0 = ClosedPoint.rational(Q, Q.zero())
    y1 = ClosedPoint.rational(Q, Q.one())
    one_pt, _ = rational_divisor(Q, A1, sigma, {y0: [(F(1, 2),)]})
    assert toricity_check(one_pt).ok
    two_pt, _ = rational_divisor(Q, A1, sigma,
                                 {y0: [(F(1, 2),)], y1: [(F(1, 3),)]})
    assert not toricity_check(two_pt).ok
    D, _ = hyperbolic_w25(lambda_field(2), "t^2+l")
    rep = toricity_check(D)
    assert rep.ok and any("not applicable" in n for n in rep.notes)
