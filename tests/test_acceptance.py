"""End-to-end acceptance checks: golden examples plus property suites."""

import random
from fractions import Fraction as F

from ghz.classifier import (CoherentFamily, Coloring, coherent_validate,
                            demazure_root_check, equivalence_probe,
                            toricity_check)
from ghz.classifier import _random_family
from ghz.curves import A1, P1, ClosedPoint, h0_generators, point_validate
from ghz.engine import (EngineError, build_operator, fmt_term, image_table,
                        kernel_in_box, toric_root_operator, verify_axioms,
                        verify_stability)
from ghz.fields import PrimeField, Rationals
from ghz.geometry import Cone, lattice_box
from ghz.polynomials import (Poly, RatFunc, lambda_field, parse_poly,
                             parse_rational)
from ghz.scenarios import load_builtin

from helpers import (binom_in_field, cone_dim, expanded, h0_dimension,
                     is_effective, orthant, principal_divisor,
                     rational_divisor, toric_apply,
                     toric_axioms_by_brute_force)

Q = Rationals()


def w25_family(field, second):
    sigma = Cone.zero(1)
    y0 = ClosedPoint.rational(field, field.zero())
    y = point_validate(parse_poly(second, field), "trusted")
    D, vertices = rational_divisor(
        field, A1, sigma, {y0: [(F(1, 5),)], y: [(F(0),), (F(1, 5),)]},
        {y0: (F(1, 5),), y: (F(0),)})
    col = Coloring(D, vertices, y0)
    return D, CoherentFamily(col, (1,), (2,), (field.one(),))


def ramified_family(field, s):
    sigma = orthant(2)
    w0 = ClosedPoint.rational(field, field.zero())
    w1 = ClosedPoint.rational(field, field.one())
    D, vertices = rational_divisor(
        field, A1, sigma,
        {w0: [(F(1, 2), F(0))], w1: [(F(1, 2), F(0)), (F(0), F(1))]},
        {w0: (F(1, 2), F(0)), w1: (F(0), F(1))})
    col = Coloring(D, vertices, w0)
    return D, CoherentFamily(col, (1, 0), s, (field.one(),))


def test_criterion_1_hyperbolic_coherence_dichotomy():
    K = lambda_field(2)
    D, theta = w25_family(K, "t^2+l")
    assert coherent_validate(theta).ok

    F2 = PrimeField(2)
    D2, theta2 = w25_family(F2, "t+1")
    rep = coherent_validate(theta2)
    assert not rep.ok
    assert any(v.startswith("(v)") and "4/5" in v for v in rep.violations)


def test_criterion_2_hyperbolic_operator_law():
    K = lambda_field(2)
    D, theta = w25_family(K, "t^2+l")
    op = build_operator(theta)
    for r in range(6):
        for m in range(-5 * r, 26):
            orders, _ = op.apply_term(
                RatFunc.from_poly(Poly(K, {r: K.one()})), (m,), 41)
            for i in range(42):
                out = orders.get(i)
                if i % 4 != 0:
                    assert out is None, (r, m, i)
                    continue
                j = i // 4
                if j > 10:
                    continue
                c = binom_in_field(5 * r + m, j, K)
                if K.is_zero(c):
                    assert out is None, (r, m, j)
                else:
                    want = ((m + 4 * j,), RatFunc.x(K, r - j).scale(c))
                    assert out == want, (r, m, j)


def test_criterion_3_hyperbolic_stability_on_generators():
    K = lambda_field(2)
    D, theta = w25_family(K, "t^2+l")
    op = build_operator(theta)
    gens = [
        ((0,), RatFunc.x(K, 1)),          # t
        ((1,), RatFunc.one(K)),           # chi^1
        ((5,), RatFunc.x(K, -1)),         # t^-1 chi^5
        ((-5,), parse_rational("t*(t^2+l)", K)),
    ]
    rep = verify_stability(D, image_table(op, gens))
    assert rep.ok, rep.violations


def test_criterion_4_ramified_dichotomy():
    F2 = PrimeField(2)
    D, theta = ramified_family(F2, (0,))
    op = build_operator(theta)
    gens = []
    omega = Cone.from_generators([(0, 1), (2, 1)], 2)
    for m in lattice_box(2, 3):
        if omega.contains(m) and sum(abs(x) for x in m) <= 3:
            gens.append((tuple(m), expanded(F2, D.generator(m))))
    table = image_table(op, gens)
    assert verify_axioms(op, table).ok
    assert verify_stability(D, table).ok
    # golden: the order-2 image of chi^(0,1) is z = t^-1 (t-1)^-1 chi^(2,1)
    w, z = op.apply_term(RatFunc.one(F2), (0, 1))[0][2]
    assert fmt_term(z, w) == "((1)/(t^2 + t))*chi^(2, 1)"
    ker = kernel_in_box(op, {}, 4)
    assert ker.report.ok
    assert (2, 1) in ker.weights  # z generates the kernel piece there

    DQ, thetaQ = ramified_family(Q, (1,))
    rep = coherent_validate(thetaQ)
    assert not rep.ok
    assert any(v.startswith("(v)") for v in rep.violations)
    opQ = build_operator(thetaQ, override=True)
    srep = verify_stability(DQ, image_table(opQ, [((0, 1), RatFunc.one(Q))]))
    assert not srep.ok
    assert any("order 1" in v for v in srep.violations)


def test_criterion_5_root_checks():
    cone1 = Cone.from_generators([(1, 0), (1, 5)], 2)
    assert demazure_root_check(cone1, (1, 5), (4, F(-1)))
    rejects1 = [(4, F(-2)), (4, F(-4, 5)), (4, F(-6, 5)), (3, F(-1)),
                (5, F(-1)), (-4, F(-1)), (4, F(1)), (0, F(-2)),
                (-1, F(0)), (9, F(-1))]
    assert len(rejects1) == 10
    for cand in rejects1:
        assert not demazure_root_check(cone1, (1, 5), cand), cand

    cone2 = Cone.from_generators([(1, -2, 0), (0, 1, 0), (1, 0, 2)], 3)
    assert demazure_root_check(cone2, (1, 0, 2), (1, 0, F(-1)))
    rejects2 = [(1, 0, F(-2)), (1, 0, F(-1, 2)), (1, 0, F(0)),
                (0, 0, F(-1)), (-1, 0, F(-1)), (1, -1, F(-1)),
                (1, 1, F(-2)), (3, 0, F(-1)), (0, 1, F(-1)),
                (2, 0, F(-1, 2))]
    assert len(rejects2) == 10
    for cand in rejects2:
        assert not demazure_root_check(cone2, (1, 0, 2), cand), cand


def test_criterion_6_equivalence_probe():
    for p in (1, 2, 3):
        for rank in (1, 2):
            for curve in (A1, P1):
                rep = equivalence_probe(100, p, curve, rank, m_bound=12,
                                        seed=11)
                assert rep.ok, (p, rank, curve, rep.violations)


def test_criterion_7_axiom_property_suite():
    # builtin coherent families
    cases = []
    K = lambda_field(2)
    cases.append(w25_family(K, "t^2+l"))
    cases.append(ramified_family(PrimeField(2), (0,)))
    for D, theta in cases:
        op = build_operator(theta)
        omega = Cone.from_generators([(0, 1), (2, 1)], 2) \
            if D.rank == 2 else None
        elems = []
        for m in lattice_box(D.rank, 3):
            if D.tail.dual().contains(m) and \
                    (omega is None or omega.contains(m)):
                fm = expanded(D.field, D.generator(m))
                elems.append((tuple(m), fm))
        assert verify_axioms(op, image_table(op, elems[:8])).ok

    # randomized coherent families over the affine line
    rng = random.Random(5)
    checked = 0
    attempts = 0
    while checked < 5 and attempts < 400:
        attempts += 1
        p = rng.choice([2, 3])
        field = PrimeField(p)
        theta = _random_family(rng, field, A1, rng.choice([1, 2]))
        if theta is None or not coherent_validate(theta).ok:
            continue
        # a coherent family over A1 with a finite rational y0 always builds
        op = build_operator(theta)
        D = theta.coloring.divisor
        elems = []
        for m in lattice_box(D.rank, 2):
            if D.tail.dual().contains(m):
                elems.append((tuple(m), expanded(field, D.generator(m))))
            if len(elems) >= 4:
                break
        rep = verify_axioms(op, image_table(op, elems))
        assert rep.ok, (theta.describe(), rep.violations)
        checked += 1
    assert checked == 5


def test_criterion_8_toricity():
    sigma = Cone.from_generators([(1,)], 1)
    y0 = ClosedPoint.rational(Q, Q.zero())
    y1 = ClosedPoint.rational(Q, Q.one())
    one_pt, _ = rational_divisor(Q, A1, sigma, {y0: [(F(1, 2),)]})
    assert toricity_check(one_pt).ok
    two_pt, _ = rational_divisor(Q, A1, sigma,
                                 {y0: [(F(1, 2),)], y1: [(F(1, 3),)]})
    assert not toricity_check(two_pt).ok
    hyper, _ = w25_family(lambda_field(2), "t^2+l")
    rep = toricity_check(hyper)
    assert rep.ok and any("not applicable" in n for n in rep.notes)


def test_criterion_9_toric_correspondence():
    rng = random.Random(9)
    fields = [Rationals(), PrimeField(2), PrimeField(3)]
    found = 0
    while found < 20:
        n = rng.choice([2, 3])
        rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        sigma0 = Cone.from_generators([r for r in rays if any(r)] or
                                      [(1,) + (0,) * (n - 1)], n)
        if not sigma0.is_pointed() or cone_dim(sigma0) < n:
            continue
        field = fields[found % 3]
        candidates = [tuple(e) for e in lattice_box(n, 2)]
        rng.shuffle(candidates)
        top = None
        for e in candidates:
            try:
                top = toric_root_operator(sigma0, e, field)
                break
            except EngineError:  # e is not a root of sigma0
                continue
        if top is None:
            continue
        rep = toric_axioms_by_brute_force(top, sigma0, 2, 4)
        assert rep.ok, rep.violations
        found += 1

    # agreement with the graded operator on the trivial divisor
    for field in fields:
        sigma = Cone.from_generators([(1,)], 1)
        y0 = ClosedPoint.rational(field, field.zero())
        D, vertices = rational_divisor(field, A1, sigma, {y0: [(0,)]},
                                       {y0: (0,)})
        col = Coloring(D, vertices, y0)
        s = (1,) if field.char_exponent == 1 else (0,)
        theta = CoherentFamily(col, (1,), s, (field.one(),))
        op = build_operator(theta)
        sigma_tilde = Cone.from_generators([(1, 0), (0, 1)], 2)
        top = toric_root_operator(sigma_tilde, (1, -1), field)
        assert top.mu == (0, 1)
        for r in range(4):
            for m in range(4):
                orders, _ = op.apply_term(RatFunc.from_poly(
                    Poly(field, {r: field.one()})), (m,), 6)
                for i in range(7):
                    c, w = toric_apply(top, (m, r), i)
                    out = orders.get(i)
                    if field.is_zero(c):
                        assert out is None, (field, r, m, i)
                    else:
                        want = ((w[0],), RatFunc.x(field, w[1]).scale(c))
                        assert out == want, (field, r, m, i)


def test_criterion_10_h0_oracle():
    rng = random.Random(10)
    points = [ClosedPoint.rational(Q, Q.from_int(c)) for c in (0, 1, 2, -1)]
    inf = ClosedPoint.infinity()
    for _ in range(100):
        # the floor of a random Q-divisor e, a coefficient a/b at a time
        fl = {}
        for y in rng.sample(points, rng.randint(1, 4)):
            fl[y] = rng.randint(-6, 6) // rng.randint(1, 4)
        fl[inf] = rng.randint(-6, 6) // rng.randint(1, 4)
        mod = h0_generators(fl, P1, Q)
        want = max(0, sum(fl.values()) + 1)
        assert h0_dimension(mod) == want
        # brute force: g * t^j belongs exactly for j below the bound
        g = mod.generator
        for j in range(want + 3):
            cand = principal_divisor(g + ((Poly.x(Q), j),), P1)
            for y, c in fl.items():
                cand[y] = cand.get(y, 0) + c
            assert is_effective(cand) == (j < want), (fl, j)
