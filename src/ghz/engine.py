"""The additive-group operator built from a coherent family: Hasse-derivative
expansion in a cyclic-cover variable, descent back to k(t) by regrouping, and
verification on one image table of the algebra generators.  The operator is
homogeneous, so it applies one term f*chi^m at a time, given as the pair
(m, f); an image table has one row per term.  The operator axioms hold by
construction wherever a row descends (see ``verify_axioms``), so
verification reports failed rows, whatever their order, stability,
horizontality and, over A1, the kernel in a weight box.  None of them reads
a truncation order: only ``apply`` truncates.  The kernel is read on the
divisor's integers (see ``kernel_in_box``): the lift of f_m*chi^m is a
product of coprime polynomials to the exponents
e_y(m) = <m, v_y> - floor(h_y(m)), so f_m is in the domain when every
e_y(m) >= 0 and spans the kernel piece at m exactly when every e_y(m) = 0;
the first holds on the whole weight cone exactly when every colored vertex
v_y lies in its D_y.  The monomial operator of a toric
root is built here too; its axioms are binomial identities."""

from __future__ import annotations

from itertools import chain, count
from math import inf

from .classifier import (CoherentFamily, coherent_validate, cover_degree,
                         demazure_root_check, lattice_check, y0_check)
from .curves import A1, P1, ClosedPoint
from .fields import FieldError
from .geometry import Cone, dot, lattice_basis, lattice_box
from .polynomials import (Poly, RatFunc, descend_power, hasse_expand,
                          times_factors)
from .reports import Report
from .tvariety import PolyhedralDivisor


class EngineError(ValueError):
    pass


class Refusal(EngineError):
    """The engine refuses its input: a negative verdict whose witnesses are
    the violations of ``report``, not a failure of the engine."""

    def __init__(self, report: Report):
        super().__init__("; ".join(report.violations))
        self.report = report


# -- terms -------------------------------------------------------------------

def fmt_term(f: RatFunc, m) -> str:
    """The term f*chi^m as "(f)*chi^m"."""
    return f"({f.to_str()})*chi^{tuple(m)}"


def outside_domain(f: RatFunc, m) -> str:
    """The witness of a term f*chi^m whose lift is not a polynomial."""
    return (f"{fmt_term(f, m)} is outside the operator's domain: "
            f"its lift is not a polynomial")


# -- the operator -----------------------------------------------------------

class DthetaOperator:
    """Sequence of divided-power operators attached to a coherent family."""

    def __init__(self, theta: CoherentFamily):
        c = theta.coloring
        div = c.divisor
        self.theta = theta
        self.coloring = c
        self.divisor = div
        self.field = div.field
        self.p = self.field.char_exponent
        self.den = div.den
        v0 = c.vertex(c.y0)
        self.d, _, self.u = cover_degree(v0, self.den, self.p)
        # d is the least common denominator of v0/den: d * v0/den is integral
        self.dv0 = tuple(self.d * x // self.den for x in v0)
        self.y0_value = c.y0.rational_value()
        self.e = tuple(theta.e)
        self.exponents = tuple(self.p ** s for s in theta.s)
        # the step S = sum lambda_j T^(p^s_j) of the Hasse expansion; under
        # override an exponent may repeat, and its lambdas add up
        self.step = sum((Poly(self.field, {q: lam}) for q, lam
                         in zip(self.exponents, theta.lam)),
                        Poly.zero(self.field))
        # points contributing to the xi factor: colored, finite, not y0
        self.xi_points = [
            (y, c.vertex(y)) for y in c.colored_points()
            if y != c.y0 and not y.is_infinity
            and any(x != 0 for x in c.vertex(y))]
        self.xi_powers = {}  # q ** n by (q, n) for times_factors
        self.coherent = True  # build_operator's verdict on theta

    def nilpotency_exponent(self) -> int:
        """The T-degree of the step S: p^{s_last}, or under override, where s
        need not increase and an exponent may repeat, the largest p^{s_j}
        whose lambdas do not cancel."""
        return self.step.degree

    def xi(self, m) -> list:
        """xi_m = prod q_y^{-<m, v_y>} over colored points away from y0, as
        (q_y, exponent) pairs with nonzero exponents.  ``build_operator``
        refuses a vertex v_y off the lattice, so the pairings are integral."""
        return [(y.poly, -a) for y, vy in self.xi_points
                if (a := dot(m, vy) // self.den)]

    def _lift(self, f: RatFunc, m) -> Poly | None:
        """H(z) = (f/xi_m)(z^d + y0) * z^{d<m,v0>}, the lift of f*chi^m, or
        None when it is not a polynomial.

        The operator's domain is the terms that lift to polynomials.  It
        holds the graded algebra when the coloring is valid, and the
        operator keeps it: the lift of an image's order-i coefficient is the
        order-i Hasse coefficient of H.

        g = f/xi_m is reduced with a monic denominator; the shift
        t -> t + y0 and the substitution t -> z^d both keep that (see
        ``descend_power``), so the lift needs no gcd."""
        g = times_factors(f, [(q, -e) for q, e in self.xi(m)],
                          self.xi_powers)
        y0, d = self.y0_value, self.d
        h = RatFunc(g.num.taylor_shift(y0).spread(d),
                    g.den.taylor_shift(y0).spread(d), reduce=False)
        h = h.times_x(dot(m, self.dv0))
        return h.num if h.is_poly() else None

    def apply_term(self, f: RatFunc, m, max_order=inf):
        """The nonzero orders up to ``max_order`` of f*chi^m's images,
        {order: (weight, coeff)}, and the first failing order as
        (order, witness) or None: the lift H expands as
        H(z + sum lambda_j T^{p^{s_j}}) by Hasse derivatives, and each
        order, descended to k(t), is multiplied by xi_w.  A term outside the
        domain fails at order 0; an order that does not descend to k(t)
        raises on a coherent family."""
        h = self._lift(f, m)
        if h is None:
            return {}, (0, outside_domain(f, m))
        series = hasse_expand(h, self.step, max_order + 1)
        out = {}
        for i, c_i in sorted(series.items()):
            w = tuple(a + i * b for a, b in zip(m, self.e))
            val = c_i.times_x(-dot(w, self.dv0))
            try:
                descended = descend_power(val, self.d, self.y0_value)
            except FieldError as exc:
                witness = f"descent failure at order {i}, weight {w}: {exc}"
                if self.coherent:
                    raise EngineError(witness)
                return out, (i, witness)
            if not descended.is_zero():
                out[i] = (w, times_factors(descended, self.xi(w),
                                           self.xi_powers))
        return out, None


def build_operator(theta: CoherentFamily, override: bool = False
                   ) -> DthetaOperator:
    rep = coherent_validate(theta)
    c = theta.coloring
    refusal = Report("operator")
    if not rep.ok and not override:
        refusal.fail("family is not coherent")
        refusal.merge(rep)
    else:  # even under override: the lift needs condition (ii), and the
        # step needs one lambda per exponent (family_validate's (iv))
        y0_check(c, refusal)
        for y in c.colored_points():
            lattice_check(c, y, refusal)
        if len(theta.lam) != len(theta.s):
            refusal.fail("(iv): one coefficient per exponent is required")
    if not refusal.ok:
        raise Refusal(refusal)
    if c.divisor.curve == P1 and c.y_infinity != ClosedPoint.infinity():
        raise EngineError("the operator engine expects the marked point at "
                          "infinity to be the infinite point itself")
    op = DthetaOperator(theta)
    op.coherent = rep.ok
    return op


# -- verification -----------------------------------------------------------

def image_table(op: DthetaOperator, terms) -> dict:
    """Each term (m, f) applied once, untruncated: its row is apply_term's
    (orders, failure), every nonzero order below the failure."""
    return {(m, f): op.apply_term(f, m) for m, f in terms}


def apply(op: DthetaOperator, terms, max_order: int, rep: Report):
    """``ghz apply`` into ``rep``: the nonzero orders up to ``max_order`` of
    each term (m, f), and its failure by that order."""
    for m, f in terms:
        orders, failure = op.apply_term(f, m, max_order)
        for i, (w, c) in orders.items():
            rep.note(f"order {i} of {fmt_term(f, m)}: {fmt_term(c, w)}")
        if failure:
            rep.fail(f"application failed on {fmt_term(f, m)}: {failure[1]}")


def verify(op: DthetaOperator, terms, box: int, rep: Report):
    """``ghz verify`` into ``rep``: the axioms, stability, horizontality and,
    over A1, the kernel in the weight box, all read from one image table of
    the algebra generators ``terms``.

    t lifts to H = z^d + y0, and the order-d*deg S coefficient of H(z + S)
    is lc(S)^d: t moves exactly when the step S is nonzero, which the
    kernel's closed form needs, so horizontality reads no row."""
    table = image_table(op, terms)
    rep.merge(verify_axioms(op, table))
    rep.merge(verify_stability(op.divisor, table))
    horizontal = not op.step.is_zero()
    if horizontal:
        rep.note(f"horizontal (order bound "
                 f"{op.nilpotency_exponent() * op.p ** op.u * op.d})")
    else:
        rep.fail("no positive order moves the curve coordinate")
    if op.divisor.curve == A1 and not horizontal:
        rep.note("kernel skipped: its closed form needs S != 0")
    elif op.divisor.curve == A1:
        ker = kernel_in_box(op, table, box)
        rep.merge(ker.report)
        if ker.weights is not None:
            rep.note(f"kernel weights {ker.weights}; lattice {ker.lattice}")


def verify_axioms(op: DthetaOperator, table: dict) -> Report:
    """The operator axioms on the rows of an image table: a failed row is an
    application failure, with its witness, whatever its order.  Nothing
    else can fail, so nothing is applied here.

    Write L(f*chi^m) = H for the lift, a polynomial on the domain, and
    S(T) = sum lambda_j T^{p^{s_j}}.  Order i of f*chi^m is the coefficient
    c_i of T^i in H(z + S), twisted by z^{-d<w,v0>}, descended to k(t) and
    multiplied by xi_w, at the weight w = m + i*e.  Wherever the rows
    descend:
    - identity: S has no constant term, so c_0 = H, which descends to
      f / xi_m; times xi_m that is f, in its one canonical form;
    - homogeneity: order i lands at weight m + i*e by construction;
    - product rule: L is multiplicative (xi_{m1+m2} = xi_{m1} xi_{m2} and
      the twists add), H -> H(z + S) is a ring map, and the twist and the
      descent multiply, so order i of x*y is sum_{a+b=i} x_a * y_b, and it
      descends where the factors' orders do;
    - iterativity: the lift of order b is the polynomial c_b, so the
      images stay in the domain, and S is additive, S(T + U) = S(T) + S(U)
      (T^{p^s} is additive in characteristic p, and p^s = 1 in
      characteristic 0), so
      sum_{a,b} [U^a] c_b(z + S(U)) T^b U^a = H(z + S(T + U))
      = sum_{a,b} C(a + b, a) c_{a+b} T^b U^a: order a of order b of x is
      C(a + b, a) times order a + b of x;
    - bounded vanishing: S has T-degree p^{s_last}
      (``DthetaOperator.nilpotency_exponent``), so
      deg_T H(z + S) <= deg H * p^{s_last}.
    Only descent and the domain can fail, and a row records both."""
    rep = Report("operator axioms")
    for (m, f), (_, failure) in table.items():
        if failure:
            rep.fail(f"application failed on {fmt_term(f, m)}: {failure[1]}")
    return rep


def verify_stability(div: PolyhedralDivisor, table: dict) -> Report:
    """Every image (w, c) in every row of an image table must lie in the
    graded algebra, at a weight of the weight cone (the dual of the tail
    cone).  A row's failure is the axioms' to report."""
    rep = Report("stability")
    dual = div.tail.dual()
    for (m, f), (orders, _) in table.items():
        for i, (w, c) in orders.items():
            if i == 0:
                continue
            image = fmt_term(c, w)
            if not dual.contains(w):
                rep.fail(f"order {i} of {fmt_term(f, m)} leaves the weight "
                         f"cone: {image}")
            elif not div.membership(c, w):
                rep.fail(f"order {i} of {fmt_term(f, m)} leaves the algebra: "
                         f"{image}")
    return rep


# -- kernel computation -----------------------------------------------------

class KernelReport:
    __slots__ = ("report", "weights", "lattice")

    def __init__(self, report: Report, weights: list, lattice: list):
        self.report = report
        self.weights = weights  # kernel weights in the box, or None
        self.lattice = lattice  # triangular basis of the weight lattice


def kernel_in_box(op: DthetaOperator, table: dict,
                  box_bound: int) -> KernelReport:
    """Kernel pieces of all positive-order operators on a weight box, read
    on the divisor's integers.

    At every colored point y write v_y for its vertex (0 where none is
    colored), h_y(m) = min <m, D_y> and e_y(m) = <m, v_y> - floor(h_y(m)).
    f_m = prod_y q_y^{-floor h_y(m)}, xi_m = prod_{y != y0} q_y^{-<m, v_y>}
    and q_{y0}(z^d + y0) = z^d, so the lift of f_m*chi^m is
        prod_{y != y0} q_y(z^d + y0)^{e_y(m)} * z^{d e_{y0}(m)},
    a product of pairwise coprime polynomials of positive degree:
    - f_m*chi^m is in the operator's domain exactly when every e_y(m) >= 0;
    - the piece at m is f_m*k[t], and the lift of f_m*P(t) is f_m's lift
      times P(z^d + y0).  For S != 0 of T-degree n, a polynomial H of degree
      D > 0 moves: the T^{nD} coefficient of H(z + S) is H's leading
      coefficient times S's to the D.  So m is a kernel weight, with its
      piece spanned by f_m, exactly when every e_y(m) = 0, <m, v0> integral
      included.  ``verify`` runs the kernel only when S != 0.

    Every e_y >= 0 on the whole weight cone exactly when each v_y lies in
    its D_y.  If it does, floor(h_y) <= h_y <= <m, v_y>.  If it does not, a
    generator g of a cone of D_y's normal fan, u that cone's vertex, has
    <g, v_y - u> < 0, and e_y(k g) < k <g, v_y - u> + 1 < 0 for k large.
    - When every vertex lies in its D_y, the kernel weights are the box
      points of omega meet L, omega = {m : every v_y minimizes m on D_y}
      and L = {m : <m, v0> in Z}, a cone and a lattice: the semigroup-algebra
      shape of Liendo (Transform. Groups 15 (2010)).  Their evaluations
      h_y(m) = <m, v_y> are integers, and every box point of the cone and
      the lattice that the box weights span lies in omega meet L: neither
      shape can fail, so neither is checked.
    - Otherwise the kernel stops with no weights: at the first box weight
      whose f_m is outside the domain, else at the least k g past the box,
      so the verdict does not depend on the box.  Its witness is left to
      the axioms when the table holds that row.
    """
    div, den = op.divisor, op.den  # over P1, div.generator raises
    points = [(y, op.coloring.vertex(y)) for y in op.coloring.colored_points()]

    def exponents(m):
        """den * e_y(m) at every colored point y."""
        evaluation = div.eval(m)
        return [dot(m, v) - evaluation.get(y, 0) // den * den
                for y, v in points]

    dual = div.tail.dual()
    box = [m for m in lattice_box(div.rank, box_bound) if dual.contains(m)]
    outside = next((g for y, v in points
                    for u, cone in div.polyhedron_at(y).normal_fan()
                    for g in cone.generators() if dot(g, v) < dot(g, u)),
                   None)
    if outside is not None:
        m = next(m for m in chain(box, (tuple(k * a for a in outside)
                                        for k in count(1)))
                 if min(exponents(m)) < 0)
        fm = times_factors(RatFunc.one(div.field), div.generator(m),
                           op.xi_powers)
        stop = Report("kernel structure")
        if (m, fm) not in table:
            stop.fail(outside_domain(fm, m))
        return KernelReport(stop, None, [])
    weights = [m for m in box if not any(exponents(m))]
    return KernelReport(Report("kernel structure"), weights,
                        lattice_basis(weights, div.rank))


# -- toric monomial operator ------------------------------------------------

class ToricRootOperator:
    """Monomial operator attached to a root e of a cone, with its
    distinguished ray mu, <e, mu> = -1: order i sends chi^m to
    C(<m, mu>, i) chi^{m + i*e}.  Its axioms are binomial identities in
    k = <m, mu>, polynomial in k, so they hold for every integer k and in
    every characteristic: order 0 is C(k, 0) = 1 at weight m; the product
    rule is Vandermonde's identity sum_a C(k1, a) C(k2, i - a) = C(k1 + k2, i);
    and as <m + b*e, mu> = k - b, the iteration rule is
    C(k - b, a) C(k, b) = C(a + b, a) C(k, a + b)."""

    def __init__(self, field, e, mu):
        self.field = field
        self.e = tuple(e)
        self.mu = tuple(mu)


def toric_root_operator(sigma0: Cone, e, field) -> ToricRootOperator:
    e = tuple(e)
    mu = None
    for r in sigma0.rays:
        if dot(e, r) == -1 and demazure_root_check(sigma0, r, e):
            mu = r
            break
    if mu is None:
        refusal = Report("toric root")
        pairs = ", ".join(f"{r} -> {dot(e, r)}" for r in sigma0.rays)
        refusal.fail(f"{e} is not a root of the cone: pairings with its "
                     f"rays: {pairs or 'none'}")
        raise Refusal(refusal)
    return ToricRootOperator(field, e, mu)
