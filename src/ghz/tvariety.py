"""Polyhedral divisors over the affine or projective line and the graded
algebra they describe: evaluation, graded pieces, degree polyhedron,
linearity fan, base change profile, membership and generator search."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import (A1, P1, ClosedPoint, ModuleDescription, QDivisor,
                     h0_generators, insep_profile)
from .geometry import (Cone, GeometryError, Polyhedron, dot,
                       minkowski_points, minkowski_weighted_sum, vec, vsub)
from .polynomials import FactoredRatFunc, Poly, RatFunc
from .reports import Report


class DivisorError(ValueError):
    pass


class PolyhedralDivisor:
    """tail cone sigma plus one sigma-tailed polyhedron per support point.

    Points outside the support implicitly carry sigma itself.
    """

    __slots__ = ("field", "curve", "rank", "tail", "support")

    def __init__(self, field, curve, tail: Cone, support: dict):
        self.field = field
        self.curve = curve
        self.rank = tail.n
        self.tail = tail
        self.support = dict(support)

    def tail_polyhedron(self) -> Polyhedron:
        origin = tuple(Fraction(0) for _ in range(self.rank))
        return Polyhedron.from_points([origin], self.tail)

    def polyhedron_at(self, y: ClosedPoint) -> Polyhedron:
        p = self.support.get(y)
        return self.tail_polyhedron() if p is None else p

    def support_points(self, exclude=None):
        out = []
        for y in self.support:
            if exclude is not None and y == exclude:
                continue
            out.append(y)
        return sorted(out, key=lambda y: (y.is_infinity, y.to_str()))

    # -- validation ---------------------------------------------------------

    def validate(self) -> Report:
        rep = Report("polyhedral divisor")
        if self.curve not in (A1, P1):
            rep.fail(f"unknown curve {self.curve!r}")
            return rep
        if not self.tail.is_pointed():
            rep.fail("tail cone is not pointed (dual weight cone would not be "
                     "full-dimensional)")
        if self.tail.dual().dim != self.rank:
            rep.fail("dual of the tail cone is not full-dimensional")
        for y, p in self.support.items():
            if y.is_infinity and self.curve == A1:
                rep.fail("infinity cannot support a divisor over the affine line")
            if p.tail != self.tail:
                rep.fail(f"polyhedron at [{y.to_str()}] has a different tail cone")
            if y.trusted:
                rep.trust(f"irreducibility of {y.to_str()} was not proven")
        if self.curve == P1 and rep.ok:
            origin = tuple(Fraction(0) for _ in range(self.rank))
            terms = self._degree_terms()
            sums = minkowski_points(terms) if terms else [origin]
            # deg D is the hull of these sums plus sigma, so it lies in the
            # convex cone sigma exactly when every sum does
            if not all(self.tail.contains(x) for x in sums):
                rep.fail("deg D is not contained in the tail cone")
                return rep
            deg = Polyhedron.from_points(sums, self.tail)
            if origin in deg.vertices:
                rep.fail("deg D is not a proper subset of the tail cone "
                         "(0 is a vertex of deg D)")
            elif _polyhedron_contains(deg, origin):
                # properness: deg D = sigma exactly when 0 in deg D
                rep.fail("deg D equals the tail cone (0 lies in deg D)")
        return rep

    # -- evaluation ---------------------------------------------------------

    def eval(self, m) -> QDivisor:
        """D(m) = sum over points of min <m, D_y> as a Q-divisor."""
        m = vec(m)
        if not self.tail.dual().contains(m):
            raise DivisorError(
                f"weight {tuple(m)} lies outside the dual of the tail cone")
        out = {}
        for y, p in self.support.items():
            out[y] = p.minimize(m)
        return QDivisor(out)

    def graded_piece(self, m) -> ModuleDescription:
        return h0_generators(self.eval(m), self.curve, self.field)

    def generator(self, m) -> FactoredRatFunc:
        """The free-module generator f_m over A1."""
        if self.curve != A1:
            raise DivisorError("free module generators exist over A1 only")
        return self.graded_piece(m).generator

    # -- degree and linearity ----------------------------------------------

    def _degree_terms(self, y_infinity=None):
        return [(y.degree, p) for y, p in self.support.items()
                if y_infinity is None or y != y_infinity]

    def degree_polyhedron(self, y_infinity=None) -> Polyhedron:
        """deg D, restricted to the complement of y_infinity when given."""
        terms = self._degree_terms(y_infinity)
        if not terms:
            return self.tail_polyhedron()
        return minkowski_weighted_sum(terms)

    def deg_restricted(self, y_infinity=None):
        """(degree polyhedron over C', its vertex list)."""
        if self.curve == P1:
            if y_infinity is None:
                raise DivisorError("P1 needs a marked point at infinity")
            if not y_infinity.is_rational:
                raise DivisorError("the marked point at infinity must be rational")
        deg = self.degree_polyhedron(y_infinity)
        return deg, list(deg.vertices)

    def linearity_fan(self, y_infinity=None):
        """Maximal cones of linearity of m -> D(m)|C' with per-point
        minimizing vertices.

        Returns a list of (cone in M_Q, v_deg, {point: vertex}).
        """
        deg, _ = self.deg_restricted(y_infinity)
        fan = deg.normal_fan()
        out = []
        for v_deg, cone in fan:
            assign = self._vertex_assignment(cone, y_infinity)
            out.append((cone, v_deg, assign))
        return out

    def _vertex_assignment(self, cone: Cone, y_infinity):
        """Per-point minimizing vertices on the interior of a linearity cone."""
        base = cone.interior_point()
        rays = cone.generators() or [base]
        # weights of the form base + sum c_i r_i stay in the relative
        # interior; vary the c_i until every per-point argmin is unique
        for attempt in range(200):
            m = base
            for i, r in enumerate(rays):
                c = Fraction((attempt + 1) ** (i + 1), attempt + 2)
                m = tuple(a + c * b for a, b in zip(m, r))
            assign = {}
            unique = True
            for y in self.support_points(exclude=y_infinity):
                mins = self.support[y].argmin_vertices(m)
                if len(mins) != 1:
                    unique = False
                    break
                assign[y] = mins[0]
            if unique:
                return assign
        raise DivisorError("could not find a generic interior weight")

    # -- base change --------------------------------------------------------

    def base_change_profile(self):
        """Per-point splitting data over the algebraic closure."""
        out = []
        for y in self.support_points():
            p = self.support[y]
            if y.is_infinity:
                out.append(BaseChangeEntry(y, 1, 1, p, ("infinity",)))
                continue
            prof = insep_profile(y)
            scaled = p.scale(prof.epsilon) if prof.epsilon > 1 else p
            tags = tuple(f"{y.to_str()}#conj{i}" for i in range(prof.s))
            out.append(BaseChangeEntry(y, prof.epsilon, prof.s, scaled, tags))
        return out

    # -- membership ---------------------------------------------------------

    def membership(self, f, m) -> bool:
        """Does f * chi^m lie in the graded algebra?"""
        if isinstance(f, FactoredRatFunc):
            f = f.expand()
        piece = self.graded_piece(m)
        fm = piece.generator.expand()
        if f.is_zero():
            return True
        quot = f / fm
        if not quot.is_poly():
            return False
        if self.curve == P1:
            return quot.num.degree <= piece.degree_bound
        return True


@dataclass(frozen=True)
class BaseChangeEntry:
    point: ClosedPoint
    epsilon: int
    s: int
    polyhedron: Polyhedron
    tags: tuple


def _polyhedron_contains(p: Polyhedron, x) -> bool:
    """Exact membership via the normal fan support description."""
    x = vec(x)
    for v, cone in p.normal_fan():
        gens = cone.generators()
        if all(dot(g, vsub(x, v)) >= 0 for g in gens):
            # x minus v pairs nonnegatively with the normal cone of v iff
            # <m, x> >= <m, v> = min on that cone; checking all vertices
            continue
        return False
    return True


# -- generator search -------------------------------------------------------

@dataclass
class GeneratorCertificate:
    bound: int
    complete: bool
    note: str


@dataclass(frozen=True)
class AlgebraGenerator:
    weight: tuple
    coeff: FactoredRatFunc

    def to_str(self) -> str:
        return f"{self.coeff.to_str()} * chi^{self.weight}"


def _frf_gcd(a: FactoredRatFunc, b: FactoredRatFunc) -> FactoredRatFunc:
    """gcd of two factored polynomials (min exponents per factor)."""
    field = a.field
    exps = {}
    for poly, e in a.factors:
        exps[poly] = min(e, b.exponent_of(poly))
    factors = [(p, e) for p, e in exps.items() if e > 0]
    return FactoredRatFunc(field, field.one(), factors)


def algebra_generators(div: PolyhedralDivisor, bound: int, weight_cone=None):
    """Minimal generating set of the A1 graded algebra, certified on a box.

    Scans weights with coordinates bounded by ``bound``, repeatedly adding
    f_m chi^m for the smallest-norm weight whose graded piece is not yet
    reached by products of the chosen elements, then removes redundant
    members.  ``weight_cone`` restricts the scanned weights (used for
    subalgebras supported on a subcone of the weight cone).
    """
    if div.curve != A1:
        raise DivisorError("generator search is implemented over A1")
    field = div.field
    dual = div.tail.dual()
    from .geometry import lattice_box

    weights = []
    for m in lattice_box(div.rank, bound):
        if all(c == 0 for c in m):
            continue
        if not dual.contains(m):
            continue
        if weight_cone is not None and not weight_cone.contains(m):
            continue
        weights.append(m)
    weights.sort(key=lambda m: (sum(abs(c) for c in m), m))
    fgen = {m: div.generator(m) for m in weights}

    def saturate(chosen):
        """reach[m] = h with reachable submodule h * f_m * k[t], or None."""
        reach = {m: (FactoredRatFunc.one(field) if m in chosen else None)
                 for m in weights}
        changed = True
        while changed:
            changed = False
            for m in weights:
                for m1 in weights:
                    m2 = tuple(a - b for a, b in zip(m, m1))
                    if m2 not in fgen or m2 < m1:
                        continue
                    h1, h2 = reach[m1], reach[m2]
                    if h1 is None or h2 is None:
                        continue
                    quot = fgen[m1] * fgen[m2] / fgen[m]
                    cand = h1 * h2 * quot
                    if not cand.is_polynomial():
                        raise DivisorError("superadditivity violated")
                    cur = reach[m]
                    new = cand if cur is None else _frf_gcd(cur, cand)
                    if cur is None or new != cur:
                        reach[m] = new
                        changed = True
        return reach

    chosen = []
    while True:
        reach = saturate(set(chosen))
        missing = [m for m in weights
                   if reach[m] is None or not reach[m].is_unit()]
        if not missing:
            break
        chosen.append(missing[0])

    # minimalization: drop members generated by the rest
    for m in list(chosen):
        trial = [g for g in chosen if g != m]
        reach = saturate(set(trial))
        if reach[m] is not None and reach[m].is_unit():
            chosen = trial

    gens = [AlgebraGenerator((0,) * div.rank,
                             FactoredRatFunc(field, field.one(),
                                             [(Poly.x(field), 1)]))]
    gens.extend(AlgebraGenerator(m, fgen[m]) for m in sorted(chosen))
    shell = max((max(abs(c) for c in m) for m in chosen), default=0)
    cert = GeneratorCertificate(
        bound=bound,
        complete=shell < bound,
        note=(f"every graded piece with weight coordinates up to {bound} is "
              f"generated; outermost generator shell {shell}"))
    return gens, cert
