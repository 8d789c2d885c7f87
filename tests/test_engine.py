import ast
import json
import random
import sys
from collections import Counter
from fractions import Fraction as F
from math import inf
from pathlib import Path

import pytest

from ghz import cli, engine, polynomials, tvariety
from ghz.classifier import (CoherentFamily, Coloring, _random_family,
                            candidate_colorings, coherent_validate)
from ghz.cli import main
from ghz.curves import A1, P1, ClosedPoint, point_validate
from ghz.engine import (DthetaOperator, EngineError, KernelReport, Refusal,
                        build_operator, fmt_term, image_table, kernel_in_box,
                        toric_root_operator, verify, verify_axioms,
                        verify_stability)
from ghz.fields import PrimeField, Rationals
from ghz.geometry import Cone, Polyhedron, dot, lattice_basis, lattice_box
from ghz.polynomials import (FractionField, Poly, RatFunc, lambda_field,
                             parse_poly, parse_rational, poly_gcd,
                             substitute_poly, times_factors)
from ghz.reports import Report
from ghz.scenarios import (builtin_examples, load_builtin, parse_scenario,
                           serialize_scenario)
from ghz.tvariety import algebra_generators

from helpers import (expanded, generator_elements, in_lattice, int_poly,
                     orthant, rational_divisor, reference_verify_axioms,
                     times_by_expansion, toric_apply, vanishing_bound)

Q = Rationals()
SCENARIOS = Path(__file__).parent / "scenarios"


def w25_operator():
    K = lambda_field(2)
    sigma = Cone.zero(1)
    y0 = ClosedPoint.rational(K, K.zero())
    y = point_validate(parse_poly("t^2+l", K), trusted=True)
    D, vertices = rational_divisor(
        K, A1, sigma, {y0: [(F(1, 5),)], y: [(F(0),), (F(1, 5),)]},
        {y0: (F(1, 5),), y: (F(0),)})
    col = Coloring(D, vertices, y0)
    theta = CoherentFamily(col, (1,), (2,), (K.one(),))
    return K, D, build_operator(theta)


def ramified_operator(field, s, override=False, lam=None):
    sigma = orthant(2)
    w0 = ClosedPoint.rational(field, field.zero())
    w1 = ClosedPoint.rational(field, field.one())
    D, vertices = rational_divisor(
        field, A1, sigma,
        {w0: [(F(1, 2), F(0))], w1: [(F(1, 2), F(0)), (F(0), F(1))]},
        {w0: (F(1, 2), F(0)), w1: (F(0), F(1))})
    col = Coloring(D, vertices, w0)
    lam = lam or (field.one(),)
    theta = CoherentFamily(col, (1, 0), s, lam)
    return D, build_operator(theta, override=override)


def test_w25_operator_shape():
    K, D, op = w25_operator()
    assert op.d == 5 and op.p == 2 and op.u == 0
    assert op.nilpotency_exponent() == 4


def test_w25_apply_t():
    K, D, op = w25_operator()
    orders, _ = op.apply_term(RatFunc.x(K, 1), (0,))
    got = {i: fmt_term(c, w) for i, (w, c) in orders.items()}
    assert got == {
        0: "(t)*chi^(0,)",
        4: "(1)*chi^(4,)",
        16: "((1)/(t^3))*chi^(16,)",
        20: "((1)/(t^4))*chi^(20,)",
    }


def test_w25_apply_generator():
    K, D, op = w25_operator()
    orders, _ = op.apply_term(parse_rational("t*(t^2+l)", K), (-5,))
    got = {i: fmt_term(c, w) for i, (w, c) in orders.items()}
    assert got[8] == "(t)*chi^(3,)"
    assert got[40] == "((1)/(t^7))*chi^(35,)"
    assert 1 not in got and 2 not in got


def test_w25_axioms_and_stability():
    K, D, op = w25_operator()
    gens, cert = algebra_generators(D, 6)
    assert cert.complete
    elems = generator_elements(K, gens)
    table = image_table(op, elems)
    assert verify_axioms(op, table).ok
    assert verify_stability(D, table).ok
    rep = Report("verify")
    verify(op, elems, 6, rep)
    assert rep.ok and "horizontal (order bound 20)" in rep.notes


def test_w25_kernel():
    K, D, op = w25_operator()
    ker = kernel_in_box(op, {}, 10)
    assert ker.report.ok
    assert ker.weights == [(0,), (5,), (10,)]
    assert ker.lattice == [[5]]


def test_weights_are_plain_ints():
    """Weights are lattice points held as ints: the weights of apply_term's
    images and the kernel's weights are int tuples, never Fractions."""
    def ints(w):
        return all(type(x) is int for x in w)

    for name in ("w25-imperfect", "char2-ramified"):
        sc = load_builtin(name)
        op, div = build_operator(sc.family), sc.divisor
        for m in lattice_box(div.rank, 3):
            if not div.tail.dual().contains(m):
                continue
            images = op.apply_term(expanded(div.field, div.generator(m)),
                                   m)[0]
            assert images and all(ints(w) for w, _ in images.values())
        ker = kernel_in_box(op, {}, sc.bounds["weight_box"])
        assert ker.weights and all(ints(m) for m in ker.weights)


def incoherent_family(e=(1,), lam=None):
    """The w25 shape over F2, where the second point t + 1 is rational."""
    F2 = PrimeField(2)
    sigma = Cone.zero(1)
    y0 = ClosedPoint.rational(F2, F2.zero())
    y = ClosedPoint.rational(F2, F2.one())
    D, vertices = rational_divisor(
        F2, A1, sigma, {y0: [(F(1, 5),)], y: [(F(0),), (F(1, 5),)]},
        {y0: (F(1, 5),), y: (F(0),)})
    col = Coloring(D, vertices, y0)
    return D, CoherentFamily(col, e, (2,), lam or (F2.one(),))


def test_build_rejects_incoherent():
    D, theta = incoherent_family()
    with pytest.raises(EngineError):
        build_operator(theta)
    op = build_operator(theta, override=True)
    assert op.d == 5


def test_build_refuses_a_p1_coloring_without_y_infinity():
    """Over P1 the engine needs the marked point at infinity; a coloring
    without one is an EngineError under override too, where the
    coherence conditions that would refuse it are not read."""
    rng = random.Random(7)
    theta = None
    while theta is None:
        theta = _random_family(rng, PrimeField(2), P1, 1)
    c = theta.coloring
    theta = CoherentFamily(Coloring(c.divisor, c.vertices, c.y0), theta.e,
                           theta.s, theta.lam)
    with pytest.raises(EngineError, match="marked point at infinity"):
        build_operator(theta, override=True)


def test_overridden_random_families_reach_a_verdict():
    """60 seeded random A1 families, over Q, F2 and F3 and at ranks 1 and 2
    in turn, verified under override at weight box 3.  A descent failure
    is a violation with its witness, not an internal failure, so no
    EngineError escapes; every coherent family verifies ok and no
    incoherent one does.  Over F3 with s = (2,), a first failing order 9 is
    a violation, and that family's only one."""
    rng = random.Random(21)
    fields = (Q, PrimeField(2), PrimeField(3))
    verdicts, late = Counter(), []
    while sum(verdicts.values()) < 60:
        n = sum(verdicts.values())
        theta = _random_family(rng, fields[n % 3], A1, 1 + n % 2)
        if theta is None:
            continue
        div = theta.coloring.divisor
        rep = Report("verify")
        verify(build_operator(theta, override=True), generator_elements(
            div.field, algebra_generators(div, 3)[0]), 3, rep)
        coherent = coherent_validate(theta).ok
        assert rep.ok or not coherent, rep.violations
        verdicts[coherent, rep.ok] += 1
        if (n % 3, theta.e, tuple(theta.s)) == (2, (0,), (2,)):
            late += rep.violations
    assert verdicts == {(True, True): 16, (False, False): 44}
    assert late == ["application failed on ((1)/(t))*chi^(2,): descent "
                    "failure at order 9, weight (2,): element is not a "
                    "function of z^d"]


def test_ramified_char2():
    F2 = PrimeField(2)
    D, op = ramified_operator(F2, (0,))
    assert op.d == 2 and op.u == 1
    orders, _ = op.apply_term(RatFunc.one(F2), (0, 1))
    got = {i: fmt_term(c, w) for i, (w, c) in orders.items()}
    assert got == {0: "(1)*chi^(0, 1)", 2: "((1)/(t^2 + t))*chi^(2, 1)"}
    w, c = op.apply_term(RatFunc.one(F2), (1, 1))[0][1]
    assert fmt_term(c, w) == "((1)/(t))*chi^(2, 1)"
    w, c = op.apply_term(RatFunc.x(F2, 1), (0, 0))[0][2]
    assert fmt_term(c, w) == "((1)/(t))*chi^(2, 0)"
    rep = Report("verify")
    verify(op, [((0, 0), RatFunc.x(F2, 1))], 1, rep)
    assert "horizontal (order bound 4)" in rep.notes


def test_image_beyond_the_nilpotency_bound_is_a_violation(monkeypatch):
    """On char2-ramified the lift of chi^(0,1) has nilpotency bound 2; an
    image at order 8, inside the truncation order, breaks the vanishing
    axiom of the reference.  The bound holds by construction, so
    verify_axioms reads only the row's failure."""
    sc = load_builtin("char2-ramified")
    op = build_operator(sc.family)
    x = ((0, 1), RatFunc.one(sc.field))
    assert vanishing_bound(op, x) == 2
    assert reference_verify_axioms(op, [x], 8).ok
    apply_term = DthetaOperator.apply_term

    def late_image(self, f, m, max_order=inf):
        out, failure = apply_term(self, f, m, max_order)
        if tuple(m) == (0, 1):
            out[8] = ((8, 1), RatFunc.one(self.field))
        return out, failure

    monkeypatch.setattr(DthetaOperator, "apply_term", late_image)
    rep = reference_verify_axioms(op, [x], 8)
    assert rep.violations == [
        "nonzero image beyond the vanishing bound on (1)*chi^(0, 1)"]
    assert verify_axioms(op, image_table(op, [x])).ok


def test_vanishing_bound_is_the_degree_of_the_step():
    """Under override s need not increase.  On char2-ramified with
    s = (1, 0) the step is T^2 + T, and t lifts to z^2, which moves up to
    order 4: the nilpotency exponent is the largest p^{s_j}, 2, not
    p^{s_last} = 1, so the bound holds and the reference finds no
    violation."""
    F2 = PrimeField(2)
    D, op = ramified_operator(F2, (1, 0), override=True, lam=(F2.one(),) * 2)
    t = ((0, 0), RatFunc.x(F2, 1))
    assert op.nilpotency_exponent() == 2
    assert max(op.apply_term(RatFunc.x(F2, 1), (0, 0))[0]) == 4 \
        == vanishing_bound(op, t)
    assert reference_verify_axioms(op, [t], 8).ok


def test_the_step_adds_the_lambdas_of_a_repeated_exponent():
    """Under override an exponent of S = sum lambda_j T^(p^s_j) may repeat,
    and its lambdas add up.  On char2-ramified's coloring with s = (1, 1)
    and lambda = (1, 1), S = 2T^3 over F3, of T-degree 3.  Over F2,
    S = 2T^2 = 0: t's lift does not move, which verify reports, and it
    skips the kernel, whose closed form needs S != 0."""
    F3 = PrimeField(3)
    _, op = ramified_operator(F3, (1, 1), override=True, lam=(F3.one(),) * 2)
    assert op.step == Poly(F3, {3: F3.from_int(2)})
    assert op.nilpotency_exponent() == 3
    F2 = PrimeField(2)
    D, op = ramified_operator(F2, (1, 1), override=True, lam=(F2.one(),) * 2)
    assert op.step.is_zero()
    rep = Report("verify")
    verify(op, generator_elements(F2, algebra_generators(D, 2)[0]), 2, rep)
    assert "no positive order moves the curve coordinate" in rep.violations
    assert rep.notes == ["kernel skipped: its closed form needs S != 0"]


def test_axioms_do_not_depend_on_written_form():
    F2 = PrimeField(2)
    D, op = ramified_operator(F2, (0,))
    f = parse_rational("(t^2+1)*(t+1)^-1", F2)  # t^2 + 1 = (t + 1)^2
    assert f == RatFunc.from_poly(parse_poly("t+1", F2))
    rep = verify_axioms(op, image_table(op, [((0, 1), f)]))
    assert rep.ok, rep.violations


def _box_elements(div, n=4):
    """The module generators at the first ``n`` weights of the unit box in
    the weight cone, as terms (m, f_m)."""
    dual = div.tail.dual()
    return [(m, expanded(div.field, div.generator(m)))
            for m in lattice_box(div.rank, 1) if dual.contains(m)][:n]


def _faulty(op, fault, elems, full, top=3):
    """Break op so that a rule of the reference fails.  "raise": an
    application truncated at an order from ``top`` to ``full - 1`` stops at
    a failing order ``top``, as a descent failure at ``top`` would; the
    reference applies the test set and its products at ``full``, so only
    the iterates fail.  "step": the step
    sum lambda_j T^(p^s_j) gets exponents 2 p^s_j (3 * 2^s_j over F2), so it
    is no longer additive and iterativity fails.  "swap": the order-``top``
    image of every term outside ``elems`` is the term itself, so the
    product rule fails, also where the factors' images have no order
    ``top``."""
    apply_term = op.apply_term

    def faulty_apply_term(f, m, max_order=inf):
        orders, failure = apply_term(f, m, max_order)
        if fault == "raise" and top <= max_order < full:
            orders = {i: v for i, v in orders.items() if i < top}
            failure = (top, f"descent failure at order {top}")
        if fault == "swap" and (m, f) not in elems:
            orders[top] = (m, f)
        return orders, failure

    op.apply_term = faulty_apply_term
    if fault == "step":
        op.exponents = tuple((3 if op.p == 2 else 2) * e
                             for e in op.exponents)
        op.step = Poly(op.field, dict(zip(op.exponents, op.theta.lam)))
    return op


def test_verify_axioms_matches_the_reference():
    """The axioms hold by construction wherever the rows descend (see
    ``verify_axioms``): the rules' letter in ``reference_verify_axioms`` at
    a truncation order reports only failed applications, the same report as
    verify_axioms on the rows truncated there.  Untruncated, verify_axioms
    reports those rows and the ones that fail past that order.  The cases:
    the builtins with a family, the overridden families of the scenario
    files, and seeded random A1 families over Q, F2 and F3 at ranks 1 and 2
    and orders 8 and 12.  The same random families broken by ``_faulty``
    show that the reference catches the violation of each rule."""
    cases, faulted = [], []
    for name in builtin_examples():
        sc = load_builtin(name)
        if sc.family is not None:  # toric-demo has none
            cases.append((build_operator(sc.family, override=True),
                          cli._generator_elements(sc)[0],
                          sc.bounds["max_order"]))
    for name in ("colored-not-vertex", "weight-cone-image"):
        sc = parse_scenario((SCENARIOS / f"{name}.json").read_text())
        with pytest.raises(EngineError):
            build_operator(sc.family)
        cases.append((build_operator(sc.family, override=True),
                      cli._generator_elements(sc)[0], sc.bounds["max_order"]))
    assert len(cases) == 5
    rng = random.Random(2323)
    for field in (Q, PrimeField(2), PrimeField(3)):
        for rank in (1, 2):
            for order in (8, 12):
                found = 0
                while found < 2:
                    theta = _random_family(rng, field, A1, rank)
                    if theta is None:
                        continue
                    try:
                        op = build_operator(theta, override=True)
                    except EngineError:
                        continue
                    elems = _box_elements(theta.coloring.divisor)
                    cases.append((op, elems, order))
                    for fault in ("raise", "step", "swap"):
                        faulted.append((fault, _faulty(build_operator(
                            theta, override=True), fault, elems, order),
                            elems, order))
                    found += 1
    assert (len(cases), len(faulted)) == (5 + 12 * 2, 12 * 2 * 3)

    def kind(violation):
        return violation.split(" on ")[0].split(" at ")[0]

    failed = early = 0
    for op, elems, order in cases:
        got = verify_axioms(op, image_table(op, elems))
        truncated = verify_axioms(op, {(m, f): op.apply_term(f, m, order)
                                       for m, f in elems})
        assert truncated == reference_verify_axioms(op, elems, order)
        assert set(truncated.violations) <= set(got.violations)
        assert {kind(v) for v in got.violations} <= {"application failed"}
        failed += len(got.violations)
        early += len(truncated.violations)
    kinds = {fault: Counter() for fault in ("raise", "step", "swap")}
    for fault, op, elems, order in faulted:
        kinds[fault].update(map(kind, reference_verify_axioms(
            op, elems, order).violations))
    assert (failed, early) == (16, 12)
    # the faults keep the rows' descent failures, and each breaks its rule:
    # a failing iterate, a step that is not additive, a wrong product
    assert {fault: set(c) - {"application failed"}
            for fault, c in kinds.items()} == {
        "raise": {"iterate failed"}, "step": {"iteration rule fails"},
        "swap": {"product rule fails", "iteration rule fails"}}
    assert all(c["application failed"] == early for c in kinds.values())


def test_verify_applies_each_generator_once(monkeypatch, capsys, tmp_path):
    """Lifts of one `ghz verify`, by step.  The image table applies each
    generator once.  The axioms, stability and the kernel read the rows and
    apply nothing: the kernel reads its weights on the divisor's integers.
    Before the table, w25-imperfect made 43 applications, char2-ramified 54,
    and char2-ramified at weight box 6 78: stability applied every
    generator again, horizontality t, and the kernel each generator
    f_m*chi^m.  Until the kernel read the integers, it also lifted f_m at
    every box weight without a row: 18, 21 and 45 lifts."""
    calls, applied = Counter(), Counter()
    step = [None]
    lift, apply_term = DthetaOperator._lift, DthetaOperator.apply_term

    def counted(self, f, m):
        calls[step[0]] += 1
        return lift(self, f, m)

    def counted_apply(self, f, m, max_order=inf):
        applied[step[0]] += 1
        return apply_term(self, f, m, max_order)

    monkeypatch.setattr(DthetaOperator, "_lift", counted)
    monkeypatch.setattr(DthetaOperator, "apply_term", counted_apply)
    for name in ("image_table", "verify_axioms", "verify_stability",
                 "kernel_in_box"):
        def in_step(*args, fn=getattr(engine, name), name=name):
            step[0] = name
            try:
                return fn(*args)
            finally:
                step[0] = None

        monkeypatch.setattr(engine, name, in_step)
    data = serialize_scenario(load_builtin("char2-ramified"))
    data["bounds"]["weight_box"] = 6
    box6 = tmp_path / "char2-ramified-box6.json"
    box6.write_text(json.dumps(data), encoding="utf-8")
    for argv, table in ((["--example", "w25-imperfect"], 4),
                        (["--example", "char2-ramified"], 5),
                        (["--scenario", str(box6)], 5)):
        calls.clear()
        applied.clear()
        assert main(["verify", *argv]) == 0
        assert capsys.readouterr().out.startswith("verify: ok")
        assert dict(calls) == {"image_table": table}, argv
        assert dict(applied) == {"image_table": table}, argv


def test_verify_lambda_field_multiplications(monkeypatch, capsys):
    """FractionField.mul calls in one `verify --example w25-imperfect`.  The
    Hasse expansion multiplied by every binomial and power of S, 1 or not,
    and made 751 of 1,100; reduced mod p as ints, it makes none.  Dividing
    by whole powers in times_factors leaves 320 calls (349 before), and 319
    once a point's epsilon no longer differentiates its separable part.  The
    axioms then stopped applying products and iterates, which leaves 136
    (16 of them reach RatFunc.__mul__), and the kernel stopped descending
    f_m at every box weight, which leaves 86, and building f_m at its
    weights, which leaves 79.  A factor 1 returns the other factor, so only
    13 products of elements of F2(l) reach RatFunc.__mul__ (all 349 did; 18
    of 319).  The Hasse expansion's own test for a factor 1 went too, as
    mul makes it: 99 calls, still 13 products."""
    calls, products = [], []
    mul, ratfunc_mul = FractionField.mul, RatFunc.__mul__

    def counted(self, a, b):
        calls.append(self)
        return mul(self, a, b)

    def counted_product(self, other):
        if isinstance(self.field, PrimeField):
            products.append(self)
        return ratfunc_mul(self, other)

    monkeypatch.setattr(FractionField, "mul", counted)
    monkeypatch.setattr(RatFunc, "__mul__", counted_product)
    assert main(["verify", "--example", "w25-imperfect"]) == 0
    assert capsys.readouterr().out.startswith("verify: ok")
    assert len(calls) == 99
    assert len(products) == 13


def _series_oracle(op, h, order):
    """h(z + S) mod T^order by Horner evaluation over k(z), as
    {i: coefficient}, zero coefficients omitted."""
    k = op.field
    K = FractionField(k, "z")
    coeffs = {0: RatFunc.x(k, 1)}
    for q, lam in zip(op.exponents, op.theta.lam):
        coeffs[q] = RatFunc.from_poly(Poly.const(k, lam))
    lifted = Poly(K, {e: RatFunc.from_poly(Poly.const(k, c))
                      for e, c in h.coeffs.items()})
    return substitute_poly(lifted, Poly(K, coeffs), order).coeffs


def _random_poly(rng, k, degree, scalars):
    coeffs = {e: rng.choice(scalars) for e in range(degree)}
    coeffs[degree] = rng.choice([c for c in scalars if not k.is_zero(c)])
    return Poly(k, coeffs)


def test_substitution_matches_series_oracle():
    """apply_term expands the lift H of f*chi^m by Hasse derivatives: at
    every truncation order, the lift of its order-i image is the coefficient
    of T^i in H(z + sum lambda_j T^(p^s_j)) by Horner's rule over k(z), and
    an order is missing exactly where that coefficient is zero.  f is a
    random polynomial multiple of the module generator at a random weight of
    the unit box."""
    K = lambda_field(2)
    l = K.generator()
    F3 = PrimeField(3)
    ops = [ramified_operator(Q, (1,), override=True)[1],
           ramified_operator(PrimeField(2), (0,))[1],
           ramified_operator(PrimeField(2), (0, 1), override=True,
                             lam=(PrimeField(2).one(),) * 2)[1],
           ramified_operator(F3, (1,), override=True, lam=(F3.from_int(2),))[1],
           w25_operator()[2],
           ramified_operator(K, (0, 1), override=True, lam=(l, K.one()))[1]]
    rng = random.Random(7)
    checked = failed = 0
    for op in ops:
        k, div = op.field, op.divisor
        scalars = [k.zero(), k.one(), k.from_int(2), k.from_int(-1)]
        if k == K:
            scalars += [l, K.add(l, K.one())]
        dual = div.tail.dual()
        weights = [m for m in lattice_box(div.rank, 1) if dual.contains(m)]
        for _ in range(6):
            m = rng.choice(weights)
            f = times_factors(RatFunc.from_poly(
                _random_poly(rng, k, rng.randrange(4), scalars)),
                div.generator(m), {})
            h = op._lift(f, m)
            bound = h.degree * op.nilpotency_exponent()
            oracle = _series_oracle(op, h, bound + 2)
            assert max(oracle) <= bound
            for top in range(bound + 2):
                images, failure = op.apply_term(f, m, top)
                if failure:
                    # an incoherent family: order top is no function of
                    # z^d, so every deeper truncation fails there too
                    assert not op.coherent and failure[0] == top
                    assert failure[1].startswith(
                        f"descent failure at order {top}, ")
                    failed += 1
                    break
                assert {i: RatFunc.from_poly(op._lift(c, w))
                        for i, (w, c) in images.items()} \
                    == {i: c for i, c in oracle.items() if i <= top}
                checked += 1
    # the F2 operator with s = (0, 1) has the step T + T^2, which three of
    # its draws fail to descend; the F2(l) one fails on four
    assert (checked, failed) == (667, 7)


def test_a_term_outside_the_domain_is_refused_with_its_witness():
    """1/t * chi^0 on w25-imperfect lifts to z^-5: the operator refuses it
    at every truncation order rather than truncate an infinite series.  On
    this coherent family too, the refusal is a failure at order 0 with its
    witness, not a raise; its row of the image table holds it, which
    verify_axioms reports and verify_stability leaves to the axioms."""
    sc = load_builtin("w25-imperfect")
    op = build_operator(sc.family)
    assert op.coherent
    f = RatFunc.x(sc.field, -1)
    witness = ("((1)/(t))*chi^(0,) is outside the operator's domain: its "
               "lift is not a polynomial")
    for order in (0, 4, 12):
        assert op.apply_term(f, (0,), order) == ({}, (0, witness))
    table = image_table(op, [((0,), f)])
    assert table[(0,), f] == ({}, (0, witness))
    assert verify_axioms(op, table).violations == [
        f"application failed on ((1)/(t))*chi^(0,): {witness}"]
    assert verify_stability(sc.divisor, table).violations == []


def test_verify_reports_the_kernels_own_refusal(capsys):
    """On refused-generator.json, v0 = 0 lies outside D_t = {1/5}, and
    e_t(m) = -floor(m/5) puts f_m outside the domain from m = 5 on.  At
    weight box 4 no box weight is, and the kernel stops at 5 = 5 * (1,),
    the generator of D_t's normal fan that separates v0: verify prints that
    witness as a violation and no kernel note.  With an empty table every box gives that
    stop; where the table holds the refused row, the kernel leaves the
    witness to the axioms."""
    path = SCENARIOS / "refused-generator-box4.json"
    witness = ("((1)/(t))*chi^(5,) is outside the operator's domain: its lift "
               "is not a polynomial")
    assert main(["verify", "--scenario", str(path), "--override"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"  violation: {witness}" in out
    assert not any("kernel weights" in line for line in out)
    sc = parse_scenario(path.read_text())
    op = build_operator(sc.family, override=True)
    for box in range(7):
        ker = kernel_in_box(op, {}, box)
        assert (ker.weights, ker.report.violations) == (None, [witness])
    x = ((5,), RatFunc.x(sc.field, -1))
    for box in (4, 5):
        ker = kernel_in_box(op, image_table(op, [x]), box)
        assert (ker.weights, ker.report.violations) == (None, [])


def test_verify_override_refuses_a_generator_outside_the_domain(capsys):
    """With v0 = 0 off the polyhedron {1/5} at t, the coloring is invalid
    and the generator t^-1 chi^5 lifts to 1/z.  verify --override reports
    the refusal once, in the axioms, as a negative verdict (exit 1, not an
    internal failure): stability skips the failed row, and the kernel step
    stops at it without repeating the witness.  The marker of the generator
    search, incomplete at box 5, is kept."""
    path = SCENARIOS / "refused-generator.json"
    assert main(["verify", "--scenario", str(path), "--override"]) == 1
    x = "((1)/(t))*chi^(5,)"
    witness = f"{x} is outside the operator's domain: its lift is not a " \
        "polynomial"
    assert capsys.readouterr().out.splitlines()[:-1] == [
        "verify: FAILED",
        f"  violation: application failed on {x}: {witness}",
        "  violation: order 4 of (t^2 + t)*chi^(-5,) leaves the algebra: "
        "(1)*chi^(-1,)",
        "  note: horizontal (order bound 4)",
        "  trusted: generator certificate is incomplete at this bound"]


def test_the_domain_is_closed_under_the_operator():
    """Seeded random A1 families over Q, F2 and F3 at ranks 1 and 2, built
    with override: every module generator of the unit box that the operator
    applies to without a descent failure has images that are applied again
    without a refusal, and whose order 0 is the image itself.  A valid
    coloring puts every generator in the domain, so none is refused."""
    rng = random.Random(2025)
    families = images = 0
    for field in (Q, PrimeField(2), PrimeField(3)):
        for rank in (1, 2):
            found = 0
            while found < 25:
                theta = _random_family(rng, field, A1, rank)
                if theta is None:
                    continue
                try:
                    op = build_operator(theta, override=True)
                except EngineError:
                    continue
                found += 1
                for m, f in _box_elements(theta.coloring.divisor):
                    orders, failure = op.apply_term(f, m)
                    if failure:
                        continue
                    for i, (w, c) in orders.items():
                        again, failure = op.apply_term(c, w)
                        assert not failure and again[0] == (w, c)
                        images += 1
            families += found
    assert (families, images) == (150, 592)


def test_ramified_char2_stability():
    F2 = PrimeField(2)
    D, op = ramified_operator(F2, (0,))
    gens, _ = algebra_generators(D, 4)
    assert [g.weight for g in gens] == [(0, 0), (0, 1), (1, 0), (2, 0),
                                        (2, 1)]
    assert verify_stability(D, image_table(
        op, generator_elements(F2, gens))).ok


def test_ramified_char0_instability():
    D, op = ramified_operator(Q, (1,), override=True)
    w, c = op.apply_term(RatFunc.one(Q), (0, 1), 4)[0][1]
    assert fmt_term(c, w) == "((2)/(t - 1))*chi^(1, 1)"
    rep = verify_stability(D, image_table(op, [((0, 1), RatFunc.one(Q))]))
    assert not rep.ok


def test_images_outside_the_weight_cone_are_stability_violations():
    """With e = (-1, 0) on char2-ramified the order-2 images leave the dual
    of the tail cone: a violation with the order, weight and coefficient,
    where evaluating the divisor there would raise."""
    sc = load_builtin("char2-ramified")
    theta = CoherentFamily(sc.coloring, (-1, 0), sc.family.s, sc.family.lam)
    op = build_operator(theta, override=True)
    gens, _ = algebra_generators(sc.divisor, sc.bounds["weight_box"])
    rep = verify_stability(sc.divisor, image_table(
        op, generator_elements(sc.field, gens)))
    assert rep.violations == [
        "order 2 of (t)*chi^(0, 0) leaves the weight cone: (t)*chi^(-2, 0)",
        "order 2 of (1)*chi^(0, 1) leaves the weight cone: "
        "((t)/(t + 1))*chi^(-2, 1)"]


def test_override_refuses_a_colored_vertex_off_the_lattice():
    """xi_m needs condition (ii) away from y0, so even --override refuses
    a colored vertex off the lattice there, with validate's witness."""
    sc = load_builtin("char2-ramified")
    w0, w1 = sorted(sc.coloring.vertices, key=lambda y: y.to_str())
    coloring = Coloring(sc.divisor, {w0: sc.coloring.vertices[w0],
                                     w1: sc.coloring.vertices[w0]}, w0)
    theta = CoherentFamily(coloring, sc.family.e, sc.family.s,
                           sc.family.lam)
    witness = "(ii): colored vertex (1/2, 0) at [t + 1] is not a lattice point"
    assert witness in coherent_validate(theta).violations
    with pytest.raises(Refusal) as refused:
        build_operator(theta, override=True)
    assert refused.value.report.violations == [witness]


def test_toric_root_operator():
    orth = orthant(2)
    top = toric_root_operator(orth, (-1, 2), Q)
    assert top.mu == (1, 0)
    c, w = toric_apply(top, (1, 0), 1)
    assert c == F(1) and w == (0, 2)
    c2, w2 = toric_apply(top, (1, 0), 2)
    assert Q.is_zero(c2)
    F2 = PrimeField(2)
    top2 = toric_root_operator(orth, (-1, 2), F2)
    c3, w3 = toric_apply(top2, (3, 0), 2)  # C(3,2) = 3 = 1 mod 2
    assert F2.is_one(c3) and w3 == (1, 4)


def test_toric_root_operator_rejects_non_root():
    orth = orthant(2)
    with pytest.raises(EngineError):
        toric_root_operator(orth, (1, 1), Q)


# -- the kernel closed form against the nullspace oracle ---------------------

def _field_nullspace(rows, ncols, field):
    """Right nullspace basis of a matrix with raw field entries."""
    mat = [list(r) for r in rows]
    pivots = []
    cur = 0
    for col in range(ncols):
        piv = next((i for i in range(cur, len(mat))
                    if not field.is_zero(mat[i][col])), None)
        if piv is None:
            continue
        mat[cur], mat[piv] = mat[piv], mat[cur]
        inv = field.inv(mat[cur][col])
        mat[cur] = [field.mul(inv, x) for x in mat[cur]]
        for i in range(len(mat)):
            if i != cur and not field.is_zero(mat[i][col]):
                f = mat[i][col]
                mat[i] = [field.sub(a, field.mul(f, b))
                          for a, b in zip(mat[i], mat[cur])]
        pivots.append(col)
        cur += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in zip(mat, pivots):
            v[pc] = field.neg(r[fc])
        basis.append(v)
    return basis


def _poly_lcm(polys, field):
    acc = Poly.one(field)
    for p in polys:
        if p.degree <= 0:
            continue
        g = poly_gcd(acc, p)
        acc = acc.exact_div(g) * p
    return acc


def _reference_kernel_in_box(op, div, box_bound, window=6):
    """The kernel by applying the operator to t^j * f_m for j <= window and
    taking the nullspace of the cleared image coefficients, and the element
    spanning the kernel piece at each kernel weight."""
    rep = Report("kernel structure")
    k = div.field
    dual = div.tail.dual()
    weights, spans = [], {}
    for m in lattice_box(div.rank, box_bound):
        if not dual.contains(m):
            continue
        fm = expanded(k, div.generator(m))
        cands = [RatFunc.x(k, j) * fm for j in range(window + 1)]
        images = []  # per candidate: {(order, weight): RatFunc}
        for g in cands:
            out = op.apply_term(g, m)[0]
            images.append({(i, w): coeff for i, (w, coeff) in out.items()
                           if i >= 1})
        keys = sorted(set().union(*[im.keys() for im in images]))
        rows = []
        for key in keys:
            vals = [im.get(key, RatFunc.zero(k)) for im in images]
            den = _poly_lcm([v.den for v in vals], k)
            exps = set()
            polys = []
            for v in vals:
                pv = v.num * den.exact_div(v.den)
                polys.append(pv)
                exps.update(pv.coeffs)
            for e in sorted(exps):
                rows.append([pv.coeff(e) for pv in polys])
        null = _field_nullspace(rows, len(cands), k)
        if not null:
            continue
        if len(null) > 1:
            rep.fail(f"kernel piece at {m} has dimension {len(null)}")
            continue
        coeffs = null[0]
        phi = RatFunc.zero(k)
        for j, c in enumerate(coeffs):
            if not k.is_zero(c):
                phi = phi + cands[j].scale(c)
        weights.append(m)
        spans[m] = phi
        if any(not k.is_zero(c) for c in coeffs[1:]):
            rep.fail(f"kernel span at {m} is not the module generator: "
                     f"{phi.to_str()}")
        elif any(a % div.den for a in div.eval(m).values()):
            rep.fail(f"kernel weight {m} has a non-integral evaluation")
    basis = lattice_basis(weights, div.rank) if weights else []
    cone = Cone.from_generators(weights, div.rank) if weights \
        else Cone.zero(div.rank)
    for m in lattice_box(div.rank, box_bound):
        if not dual.contains(m) or not cone.contains(m):
            continue
        if in_lattice(m, basis) and m not in weights:
            rep.fail(f"lattice point {m} in the cone is not a kernel weight")
    return KernelReport(rep, weights, basis), spans


def _kernel_summary(ker):
    return (ker.weights, ker.lattice, ker.report.violations)


def _module_generators(div, weights):
    """f_m at each weight."""
    return {m: expanded(div.field, div.generator(m)) for m in weights}


def test_kernel_closed_form_matches_nullspace_oracle():
    """Same weights, lattice and violations as the nullspace over the
    window, whose span at every kernel weight is f_m, on the builtins with a
    family (toric-demo has none) at two boxes and on random coherent A1
    families."""
    cases = []
    # the reference's candidates at each builtin are t^j * f_m, j <= window
    windows = {"w25-imperfect": 4, "w25-prime": 4, "char2-ramified": 3}
    for name, window in windows.items():
        sc = load_builtin(name)
        op = build_operator(sc.family, override=True)
        box = sc.bounds["weight_box"]
        for bound in (box // 2, box):
            cases.append((op, sc.divisor, bound, window))
    # the reference costs window + 1 applications per weight, at degrees up
    # to d * window above the generator's: a Q family with d = 3 takes 15 s
    # of reference time at rank 2, box 1, window 4; hence window 2 there
    rng = random.Random(41)
    for field in (Q, PrimeField(2), PrimeField(3), lambda_field(2)):
        for rank, bound, window in ((1, 6, 4), (2, 1, 2)):
            found = 0
            while found < 2:
                theta = _random_family(rng, field, A1, rank)
                if theta is None or not coherent_validate(theta).ok:
                    continue
                cases.append((build_operator(theta), theta.coloring.divisor,
                              bound, window))
                found += 1
    kernel_weights = 0
    for op, div, bound, window in cases:
        got = kernel_in_box(op, {}, bound)
        want, spans = _reference_kernel_in_box(op, div, bound, window)
        assert _kernel_summary(got) == _kernel_summary(want)
        assert spans == _module_generators(div, got.weights)
        kernel_weights += len(got.weights)
    assert len(cases) == 22
    assert kernel_weights == 136


def _reference_scan_kernel(op, table, box_bound):
    """The kernel by the scan that preceded the integer rule, copied but for
    three names: ``apply_term`` for the descent alone (the same orders and
    failure, each order times xi_w != 0), ``degree <= 0`` for
    ``is_constant``, and the helpers' ``in_lattice``, and returns the
    element spanning the kernel piece at each kernel weight beside the
    report.  It descends f_m at every box weight without a row, checks the
    closed form against the images, and then the integral evaluations and
    the semigroup shape."""
    div = op.divisor  # over P1, div.generator raises: there is no f_m
    rep = Report("kernel structure")
    dual = div.tail.dual()
    weights, spans = [], {}
    for m in lattice_box(div.rank, box_bound):
        if not dual.contains(m):
            continue
        fm = times_factors(RatFunc.one(div.field), div.generator(m),
                           op.xi_powers)
        row = table.get((m, fm))
        orders, failure = op.apply_term(fm, m) if row is None else row
        if failure and not failure[0]:
            stop = Report("kernel structure")
            if row is None:
                stop.fail(failure[1])
            return KernelReport(stop, None, []), {}
        a, r = divmod(dot(m, op.dv0), op.d)  # <m, v0> = a + r/d
        fixed = False
        if not r:
            phi = op.xi(m) + [(op.coloring.y0.poly, -a)]
            g = times_factors(RatFunc(fm.den, fm.num, reduce=False), phi,
                              op.xi_powers)
            fixed = g.is_poly() and g.num.degree <= 0
        if fixed == (failure is not None or max(orders) > 0):
            raise EngineError(f"closed-form kernel at {m} disagrees with the "
                              f"operator's images of the module generator")
        if fixed:
            weights.append(m)
            spans[m] = fm
            if any(a % div.den for a in div.eval(m).values()):
                rep.fail(f"kernel weight {m} has a non-integral evaluation")
    basis = lattice_basis(weights, div.rank) if weights else []
    cone = Cone.from_generators(weights, div.rank) if weights \
        else Cone.zero(div.rank)
    # semigroup shape: every box point of the lattice inside the cone must
    # be a kernel weight
    for m in lattice_box(div.rank, box_bound):
        if not dual.contains(m) or not cone.contains(m):
            continue
        if in_lattice(m, basis) and m not in weights:
            rep.fail(f"lattice point {m} in the cone is not a kernel weight")
    return KernelReport(rep, weights, basis), spans


def _vertices_in_place(coloring):
    """Does every colored vertex lie in its polyhedron?  Adding a point of
    a polyhedron to its points leaves its canonical form unchanged."""
    div = coloring.divisor
    for y in coloring.colored_points():
        p = div.polyhedron_at(y)
        if Polyhedron.from_points([*p.vertices, coloring.vertex(y)],
                                  p.tail) != p:
            return False
    return True


def _stop_weight(ker):
    """The weight of the kernel's stop witness."""
    text = ker.report.violations[0]
    return ast.literal_eval(text[text.index("*chi^") + 5:
                                 text.index(" is outside")])


def test_kernel_matches_the_reference_scan():
    """The integer rule against the scan, at box 1 and at a larger box: the
    builtins with a family, with and without their generators' table, and
    seeded random A1 families over Q, F2 and F3 at ranks 1 and 2, each also
    with one colored vertex moved to a random lattice point (under
    override), and 8 candidate colorings of seeded F2 and F3 divisors whose
    y0 lies off the support.  Where every vertex lies in its D_y, the two
    give the same weights, lattice and violations, the scan's span at every
    kernel weight is f_m, and the scan's two shape checks hold: every
    kernel weight has integral evaluations, and every box point of the cone
    and the lattice of the kernel weights is one.  Where a
    vertex does not, the rule stops; a stop inside the box is the scan's
    stop, with its witness, and a stop past the box is one that the scan
    did not reach."""
    cases = []
    for name in ("w25-imperfect", "w25-prime", "char2-ramified"):
        sc = load_builtin(name)
        op = build_operator(sc.family, override=True)
        box = sc.bounds["weight_box"]
        cases += [(op, {}, box), (op, image_table(
            op, cli._generator_elements(sc)[0]), box)]
    rng = random.Random(37)
    for field in (Q, PrimeField(2), PrimeField(3)):
        for rank, box in ((1, 6), (2, 2)):
            found = 0
            while found < 6:
                theta = _random_family(rng, field, A1, rank)
                if theta is None:
                    continue
                c = theta.coloring
                moved = rng.choice(c.colored_points())
                vertices = dict(c.vertices)
                vertices[moved] = tuple(c.divisor.den * rng.randint(-2, 2)
                                        for _ in range(rank))
                for coloring in (c, Coloring(c.divisor, vertices, c.y0)):
                    cases.append((build_operator(CoherentFamily(
                        coloring, theta.e, theta.s, theta.lam),
                        override=True), {}, box))
                found += 1
    # y0 off the support, where D_y0 is the tail: the candidate colorings of
    # seeded divisors
    rng, off = random.Random(17), 0
    while off < 8:
        theta = _random_family(rng, PrimeField(2 + off % 2), A1, 1 + off % 2)
        for coloring in candidate_colorings(theta.coloring.divisor) \
                if theta else ():
            if coloring.y0 not in coloring.divisor.support:
                cases.append((build_operator(CoherentFamily(
                    coloring, theta.e, theta.s, theta.lam), override=True),
                    {}, 3))
                off += 1
    kinds = Counter()
    for op, table, top in cases:
        div = op.divisor
        for box in (1, top):
            got = kernel_in_box(op, table, box)
            want, spans = _reference_scan_kernel(op, table, box)
            if _vertices_in_place(op.coloring):
                kinds["in place"] += 1
                assert _kernel_summary(got) == _kernel_summary(want)
                assert spans == _module_generators(div, got.weights)
                assert got.report.ok
                assert all(a % div.den == 0 for m in got.weights
                           for a in div.eval(m).values())
                cone = Cone.from_generators(got.weights, div.rank)
                assert [m for m in lattice_box(div.rank, box)
                        if div.tail.dual().contains(m) and cone.contains(m)
                        and in_lattice(m, got.lattice)] == got.weights
            elif want.weights is None:
                kinds["stop in the box"] += 1
                assert got.weights is None
                assert _kernel_summary(got) == _kernel_summary(want)
            else:
                kinds["stop past the box"] += 1
                assert got.weights is None
                assert max(map(abs, _stop_weight(got))) > box
    assert len(cases) == 6 + 36 * 2 + 8
    assert kinds == {"in place": 114, "stop in the box": 54,
                     "stop past the box": 4}


def test_kernel_runs_without_the_operator(monkeypatch):
    """The kernel reads the divisor's integers: with the lift, the Hasse
    expansion, the descent and apply_term all raising, it gives the same
    kernel on the builtins with a family, with and without their table."""
    want = []
    for name in ("w25-imperfect", "w25-prime", "char2-ramified"):
        sc = load_builtin(name)
        op = build_operator(sc.family, override=True)
        for table in ({}, image_table(op, cli._generator_elements(sc)[0])):
            want.append((op, table, sc.bounds["weight_box"], _kernel_summary(
                kernel_in_box(op, table, sc.bounds["weight_box"]))))

    def applied(*args):
        raise AssertionError("kernel_in_box applied the operator")

    monkeypatch.setattr(DthetaOperator, "_lift", applied)
    monkeypatch.setattr(DthetaOperator, "apply_term", applied)
    monkeypatch.setattr(engine, "hasse_expand", applied)
    monkeypatch.setattr(engine, "descend_power", applied)
    for op, table, box, summary in want:
        ker = kernel_in_box(op, table, box)
        assert ker.weights and _kernel_summary(ker) == summary


def test_kernel_of_overridden_incoherent_families():
    D, theta = incoherent_family()
    op = build_operator(theta, override=True)
    ker = kernel_in_box(op, {}, 10)
    assert _kernel_summary(ker) == _kernel_summary(
        _reference_kernel_in_box(op, D, 10, window=4)[0])
    # a step that does not descend: f_1*chi^1 fails at order 4, and a
    # failing order moves it, so the closed form's verdict stands, the same
    # as for e = (1,)
    D, theta = incoherent_family(e=(-2,))
    op = build_operator(theta, override=True)
    orders, failure = op.apply_term(RatFunc.one(D.field), (1,))
    assert list(orders) == [0] and failure[0] == 4
    assert _kernel_summary(kernel_in_box(op, {}, 10)) == _kernel_summary(ker)
    assert _kernel_summary(_reference_scan_kernel(op, {}, 10)[0]) \
        == _kernel_summary(ker)
    assert ker.weights == [(0,), (5,), (10,)] and ker.report.ok
    # lambda = 0 fixes every element: verify skips the kernel, whose closed
    # form needs S != 0
    F2 = PrimeField(2)
    D, theta = incoherent_family(lam=(F2.zero(),))
    rep = Report("verify")
    verify(build_operator(theta, override=True), generator_elements(
        F2, algebra_generators(D, 10)[0]), 10, rep)
    assert rep.violations[-1] == \
        "no positive order moves the curve coordinate"
    assert rep.notes == ["kernel skipped: its closed form needs S != 0"]


@pytest.mark.parametrize("field, points", [
    (Q, ["t", "t - 1", "t + 2", "t^2 - 2", "(t^2 - 2)*(t^2 - 3)"]),
    (PrimeField(2), ["t", "t + 1", "t^2 + t + 1"]),
    (lambda_field(2), ["t", "t + 1", "t^2 + l"]),
], ids=["Q", "F2", "F2(l)"])
def test_times_factors_matches_expansion(field, points):
    rng = random.Random(11)
    qs = [parse_poly(text, field) for text in points]

    def product(n):
        f = Poly.one(field)
        for _ in range(n):
            f = f * rng.choice(qs + [int_poly(field, [1, 1, 1])])
        return f

    cases, powers = [RatFunc.zero(field), RatFunc.one(field)], {}
    for _ in range(30):
        num = product(rng.randint(0, 3)).scale(field.from_int(rng.choice(
            (1, 2, -1) if field.char_exponent != 2 else (1,))))
        cases.append(RatFunc(num, product(rng.randint(0, 3))))
    for r in cases:
        for _ in range(4):
            factors = [(q, rng.randint(-4, 4)) for q in
                       rng.sample(qs, rng.randint(0, len(qs)))]
            got = times_factors(r, factors, powers)
            assert got == times_by_expansion(r, factors), (r, factors)
    # q^k on either side against q^e: q^|e| divides exactly (k >= |e|),
    # partly (0 < k < |e|) or not at all (k = 0, or e on the same side);
    # for q = t, k is ord_t of that side and |e| goes up to 6
    cofactor = int_poly(field, [1, 1, 1])
    for i, q in enumerate(qs):
        other = qs[i - 1]
        ks = (0, 1, 3, 6) if q == Poly.x(field) else (0, 1, 3)
        for k in ks:
            r = RatFunc(q ** k * cofactor, other)
            for r in (r, r.inverse()):
                for e in range(-ks[-1], ks[-1] + 1):
                    for factors in ([(q, e)], [(q, e), (other, -e)]):
                        got = times_factors(r, factors, powers)
                        assert got == times_by_expansion(r, factors), \
                            (r, factors)
    assert all(p == q ** n for (q, n), p in powers.items())


def test_times_factors_reduces_trusted_reducible_points(monkeypatch):
    """A trusted point need not be irreducible, so its polynomial can share a
    proper factor with another point's: the gcd fallback cancels it."""
    big = parse_poly("(t^2 - 2)*(t^2 - 3)", Q)
    small = parse_poly("t^2 - 2", Q)
    gcds = []
    monkeypatch.setattr(polynomials, "poly_gcd",
                        lambda a, b: gcds.append(1) or poly_gcd(a, b))
    for r, factors in [(RatFunc(Poly.one(Q), small), [(big, 1)]),
                       (RatFunc.from_poly(small), [(big, -2)]),
                       (RatFunc.one(Q), [(small, -1), (big, 1)]),
                       (RatFunc.one(Q), [(big, 2), (small, -3)]),
                       (RatFunc(Poly.one(Q), small ** 2), [(big, 2)]),
                       (RatFunc(Poly.one(Q), big * small ** 3), [(big, 2)]),
                       (RatFunc.from_poly(big * small ** 2), [(big, -3)])]:
        got = times_factors(r, factors, {})
        assert got == times_by_expansion(r, factors)
    assert gcds
    assert times_factors(RatFunc(Poly.one(Q), small), [(big, 1)], {}) \
        == RatFunc.from_poly(parse_poly("t^2 - 3", Q))


# The rank-2 coherent family over Q of the roadmap's verify-over-Q item, at
# weight box 2: every xi factor of the engine crosses times_factors.
Q_FAMILY = {
    "field": {"kind": "Q"}, "rank": 2, "curve": "A1",
    "tail_rays": [["-2", "1"]],
    "support": [{"point": "t", "vertices": [["-5/6", "1/6"], ["4", "-3"]]},
                {"point": "t - 1", "vertices": [["3", "-5/2"]]},
                {"point": "t - 2",
                 "vertices": [["-1/3", "-1/6"], ["6", "-4"]]}],
    "coloring": {"y0": "t - 1", "vertices": {"t": ["4", "-3"],
                                             "t - 1": ["3", "-5/2"],
                                             "t - 2": ["6", "-4"]}},
    "family": {"e": [0, 1], "s": [1], "lambda": ["1"]},
    "bounds": {"weight_box": 2, "max_order": 12}}

Q_FAMILY_VERIFY = [
    "verify: ok",
    "  note: horizontal (order bound 2)",
    "  note: kernel weights [(-2, -2), (-2, 0), (-1, 0), (0, 0), (-2, 2), "
    "(-1, 2), (0, 2), (1, 2)]; lattice [[1, 0], [0, 2]]",
    "  trusted: generator certificate is incomplete at this bound",
]


def test_verify_over_q_matches_the_expanding_path(tmp_path, capsys,
                                                   monkeypatch):
    path = tmp_path / "q_family.json"
    path.write_text(json.dumps(Q_FAMILY), encoding="utf-8")

    def verify():
        code = main(["verify", "--scenario", str(path)])
        lines = capsys.readouterr().out.splitlines()
        return code, [x for x in lines if not x.startswith("elapsed:")]

    assert verify() == (0, Q_FAMILY_VERIFY)
    # every module that binds times_factors, each patched and each called
    calls = Counter()
    for module in (cli, engine, tvariety):
        def expanding(r, factors, powers, name=module.__name__):
            calls[name] += 1
            return times_by_expansion(r, factors)

        monkeypatch.setattr(module, "times_factors", expanding)
    bound = {name for name, module in sys.modules.items()
             if name.startswith("ghz.") and name != "ghz.polynomials"
             and hasattr(module, "times_factors")}
    assert bound == {"ghz.cli", "ghz.engine", "ghz.tvariety"}
    assert verify() == (0, Q_FAMILY_VERIFY)
    assert set(calls) == bound, calls
