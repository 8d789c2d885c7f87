"""The additive-group operator built from a coherent family: Hasse-derivative
expansion in a cyclic-cover variable, descent back to k(t) by regrouping, and
verification on one image table of the algebra generators.  The operator
axioms hold by construction wherever a row descends (see ``verify_axioms``),
so verification reports failed rows, stability, horizontality and, over A1,
the kernel in a weight box.  The monomial operator of a toric root is built
here too; its axioms are binomial identities."""

from __future__ import annotations

from math import inf

from .binomials import binom_in_field
from .classifier import (CoherentFamily, coherent_validate, cover_degree,
                         demazure_root_check, lattice_check, y0_check)
from .curves import A1, P1, ClosedPoint
from .fields import FieldError
from .geometry import Cone, dot, in_lattice, lattice_basis, lattice_box
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


# -- graded elements --------------------------------------------------------

class GradedElement:
    """Finite sum of terms f(t) * chi^m with f in k(t)."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms: dict):
        self.field = field
        self.terms = {tuple(w): f for w, f in terms.items()
                      if not f.is_zero()}

    @classmethod
    def term(cls, field, weight, coeff):
        return cls(field, {tuple(weight): coeff})

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    def is_zero(self) -> bool:
        return not self.terms

    def weights(self):
        return sorted(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for w, f in other.terms.items():
            out[w] = out[w] + f if w in out else f
        return GradedElement(self.field, out)

    def __neg__(self):
        return GradedElement(self.field, {w: -f for w, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, GradedElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_str(self) -> str:
        return " + ".join(f"({self.terms[w].to_str()})*chi^{w}"
                          for w in sorted(self.terms)) or "0"

    def __repr__(self):
        return f"GradedElement({self.to_str()})"


class ApplicationResult:
    __slots__ = ("orders", "failure")

    def __init__(self, orders: dict, failure=None):
        self.orders = orders    # nonzero orders below the failure, i -> image
        self.failure = failure  # (first failing order, its witness) or None

    def failed_by(self, order):
        """The witness of a failure by ``order``, else a false value."""
        return self.failure and self.failure[0] <= order and self.failure[1]


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
        # the step S = sum lambda_j T^(p^s_j) of the Hasse expansion
        self.step = Poly(self.field, dict(zip(self.exponents, theta.lam)))
        # points contributing to the xi factor: colored, finite, not y0
        self.xi_points = [
            (y, c.vertex(y)) for y in c.colored_points()
            if y != c.y0 and not y.is_infinity
            and any(x != 0 for x in c.vertex(y))]
        self.xi_powers = {}  # q ** n by (q, n) for times_factors
        self.coherent = True  # build_operator's verdict on theta

    def nilpotency_exponent(self) -> int:
        """The T-degree of the step S: p^{s_last}, or the largest p^{s_j}
        under override, where s need not increase."""
        return max(self.exponents)

    def xi(self, m) -> list:
        """xi_m = prod q_y^{-<m, v_y>} over colored points away from y0, as
        (q_y, exponent) pairs with nonzero exponents.  ``build_operator``
        refuses a vertex v_y off the lattice, so the pairings are integral."""
        return [(y.poly, -a) for y, vy in self.xi_points
                if (a := dot(m, vy) // self.den)]

    def _lift(self, f: RatFunc, m) -> Poly | None:
        """H(z) = (f/xi_m)(z^d + y0) * z^{d<m,v0>}, the lift of f*chi^m, or
        None when it is not a polynomial.

        The operator's domain is the elements whose terms lift to
        polynomials.  It holds the graded algebra when the coloring is
        valid, and the operator keeps it: the lift of an image's order-i
        coefficient is the order-i Hasse coefficient of H.

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

    def descend_term(self, f: RatFunc, m, max_order=inf):
        """The nonzero orders up to ``max_order`` of f*chi^m's images before
        the factor xi_w, {order: (weight, coeff / xi_w)}, and the first
        failing order as (order, witness) or None: the lift H expands as
        H(z + sum lambda_j T^{p^{s_j}}) by Hasse derivatives.  A term outside
        the domain fails at order 0; an order that does not descend to k(t)
        raises on a coherent family."""
        h = self._lift(f, m)
        if h is None:
            return {}, (0, f"({f.to_str()})*chi^{tuple(m)} is outside the "
                           f"operator's domain: its lift is not a polynomial")
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
                out[i] = (w, descended)
        return out, None

    def apply_term(self, f: RatFunc, m, max_order=inf):
        """``descend_term`` with each order's coefficient times xi_w != 0:
        {order: (weight, coeff)} and the failure."""
        out, failure = self.descend_term(f, m, max_order)
        return {i: (w, times_factors(c, self.xi(w), self.xi_powers))
                for i, (w, c) in out.items()}, failure

    def apply(self, x: GradedElement, max_order=inf) -> ApplicationResult:
        """x's images up to ``max_order``, below its terms' least failure
        (the first one at a tie): a term that fails at order 0 decides x,
        and the later terms are not applied."""
        orders, failure = {}, None
        for w, f in x.terms.items():
            images, failed = self.apply_term(f, w, max_order)
            if failed and (not failure or failed[0] < failure[0]):
                if not failed[0]:
                    return ApplicationResult({}, failed)
                failure, max_order = failed, failed[0] - 1
            for i, (w2, coeff) in images.items():
                term = GradedElement.term(self.field, w2, coeff)
                orders[i] = orders[i] + term if i in orders else term
        orders = {i: v for i, v in orders.items()
                  if i <= max_order and not v.is_zero()}
        return ApplicationResult(orders, failure)


def build_operator(theta: CoherentFamily, override: bool = False
                   ) -> DthetaOperator:
    rep = coherent_validate(theta)
    c = theta.coloring
    refusal = Report("operator")
    if not rep.ok and not override:
        refusal.fail("family is not coherent")
        refusal.merge(rep)
    else:  # even under override: the lift needs condition (ii)
        y0_check(c, refusal)
        for y in c.colored_points():
            lattice_check(c, y, refusal)
    if not refusal.ok:
        raise Refusal(refusal)
    if c.divisor.curve == P1 and c.y_infinity != ClosedPoint.infinity():
        raise EngineError("the operator engine expects the marked point at "
                          "infinity to be the infinite point itself")
    op = DthetaOperator(theta)
    op.coherent = rep.ok
    return op


# -- verification -----------------------------------------------------------

def image_table(op: DthetaOperator, elems) -> dict:
    """Each element applied once, untruncated, so that its row holds every
    nonzero order below its failure."""
    return {x: op.apply(x) for x in elems}


def verify(op: DthetaOperator, elems, max_order: int, box: int, rep: Report):
    """``ghz verify`` into ``rep``: the axioms, stability, horizontality and,
    over A1, the kernel in the weight box, all read from one image table of
    the algebra generators ``elems``, t*chi^0 first."""
    table = image_table(op, elems)
    rep.merge(verify_axioms(op, table, max_order))
    for x, res in table.items():  # the axioms report failures by max_order
        if res.failure and not res.failed_by(max_order):
            rep.fail(f"application failed on {x.to_str()}: {res.failure[1]}")
    rep.merge(verify_stability(op.divisor, table))
    t_row = table[elems[0]]  # t's lift z^d + y0 is in the domain
    # it has the coefficient lambda_last^d at order d p^{s_last}, so t moves
    # unless lambda_last = 0 (only under override); a failing order moves it
    horizontal = t_row.failure is not None or max(t_row.orders) > 0
    if horizontal:
        rep.note(f"horizontal (order bound "
                 f"{op.nilpotency_exponent() * op.p ** op.u * op.d})")
    else:
        rep.fail("no positive order moves the curve coordinate")
    if op.divisor.curve == A1 and not horizontal:
        rep.note("kernel skipped: its closed form needs lambda_last != 0")
    elif op.divisor.curve == A1:
        ker = kernel_in_box(op, table, box)
        rep.merge(ker.report)
        if ker.weights is not None:
            rep.note(f"kernel weights {ker.weights}; lattice {ker.lattice}")


def verify_axioms(op: DthetaOperator, table: dict, max_order: int) -> Report:
    """The operator axioms on the rows of an image table: a row whose first
    failing order is at most ``max_order`` is an application failure, with
    its witness.  Nothing else can fail, so nothing is applied here.

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
    for x, res in table.items():
        if witness := res.failed_by(max_order):
            rep.fail(f"application failed on {x.to_str()}: {witness}")
    return rep


def verify_stability(div: PolyhedralDivisor, table: dict) -> Report:
    """Every image in every row of an image table, a GradedElement, must
    lie in the graded algebra, at a weight of the weight cone (the dual of
    the tail cone).  A row's failure is the axioms' to report."""
    rep = Report("stability")
    dual = div.tail.dual()
    for g, res in table.items():
        for i, val in sorted(res.orders.items()):
            if i == 0:
                continue
            for w in val.weights():
                image = f"({val.terms[w].to_str()})*chi^{w}"
                if not dual.contains(w):
                    rep.fail(f"order {i} of {g.to_str()} leaves the weight "
                             f"cone: {image}")
                elif not div.membership(val.terms[w], w):
                    rep.fail(f"order {i} of {g.to_str()} leaves the algebra: "
                             f"{image}")
    return rep


# -- kernel computation -----------------------------------------------------

class KernelReport:
    __slots__ = ("report", "weights", "spans", "lattice")

    def __init__(self, report: Report, weights: list, spans: dict,
                 lattice: list):
        self.report = report
        self.weights = weights  # kernel weights in the box, or None
        self.spans = spans      # weight -> RatFunc spanning the kernel piece
        self.lattice = lattice  # triangular basis of the weight lattice


def kernel_in_box(op: DthetaOperator, table: dict,
                  box_bound: int) -> KernelReport:
    """Kernel pieces of all positive-order operators on a weight box, in
    closed form.

    f*chi^m is in the kernel exactly when its lift h satisfies
    h(z + S) = h(z).  A polynomial h of degree n > 0 has the nonzero
    T^{n p^{s_last}} coefficient a_n lambda_last^n, so the piece at m is
    zero or spanned by phi_m = xi_m * (t - y0)^{-<m,v0>}, with <m,v0>
    integral.  The lift of f_m is 1/g(z^d + y0) with g = phi_m / f_m,
    outside the domain unless it is a polynomial; so the piece meets
    f_m * k[t] only in multiples of f_m, and m is a kernel weight exactly
    when g is a nonzero constant.  Its row in the image table, or else
    every order of f_m's lift descended without forming xi_w * c, checks
    this: its positive orders vanish exactly then, and a failing order is
    nonzero.  An f_m outside the domain ends the scan with no weights, and
    with its witness unless its row holds it (the axioms report that).

    The kernel weights must have integral evaluations and be a sublattice
    trace intersected with a cone: the semigroup-algebra shape of the
    kernel of a horizontal operator (Liendo, Transform. Groups 15 (2010),
    in characteristic 0).
    """
    div = op.divisor  # over P1, div.generator raises: there is no f_m
    rep = Report("kernel structure")
    dual = div.tail.dual()
    weights, spans = [], {}
    for m in lattice_box(div.rank, box_bound):
        if not dual.contains(m):
            continue
        fm = times_factors(RatFunc.one(div.field), div.generator(m),
                           op.xi_powers)
        row = table.get(GradedElement.term(div.field, m, fm))
        orders, failure = op.descend_term(fm, m) if row is None \
            else (row.orders, row.failure)
        if failure and not failure[0]:
            stop = Report("kernel structure")
            if row is None:
                stop.fail(failure[1])
            return KernelReport(stop, None, {}, [])
        a, r = divmod(dot(m, op.dv0), op.d)  # <m, v0> = a + r/d
        fixed = False
        if not r:
            phi = op.xi(m) + [(op.coloring.y0.poly, -a)]
            g = times_factors(RatFunc(fm.den, fm.num, reduce=False), phi,
                              op.xi_powers)
            fixed = g.is_poly() and g.num.is_constant()
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
    return KernelReport(rep, weights, spans, basis)


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

    def apply(self, m, i: int):
        """(coefficient, weight) of the order-i image of chi^m."""
        coeff = binom_in_field(dot(m, self.mu), i, self.field)
        w = tuple(a + i * b for a, b in zip(m, self.e))
        return coeff, w


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
