"""Polyhedral divisors over the affine or projective line and the graded
algebra they describe: evaluation, graded pieces, degree polyhedron,
linearity fan, membership and generator search."""

from __future__ import annotations

from collections import deque
from operator import add

from .curves import A1, P1, ClosedPoint, ModuleDescription, h0_generators
from .geometry import (Cone, Polyhedron, dot, lattice_box,
                       minkowski_weighted_sum)
from .polynomials import Poly, fmt_factors, times_factors
from .reports import Record, Report


class DivisorError(ValueError):
    pass


class PolyhedralDivisor:
    """tail cone sigma plus one sigma-tailed polyhedron per support point.

    Points outside the support implicitly carry sigma itself. Vertices are
    int tuples over one positive denominator ``den``: the polyhedron at y is
    (1/den) * support[y]. ``den`` need not be the least one, and nothing
    computed from the divisor depends on it. A divisor is never changed
    after construction, so each graded piece is built once and kept.
    """

    __slots__ = ("field", "curve", "rank", "tail", "support", "den", "_pieces")

    def __init__(self, field, curve, tail: Cone, support: dict, den: int):
        self.field = field
        self.curve = curve
        self.rank = tail.n
        self.tail = tail
        self.support = dict(support)
        self.den = den
        self._pieces = {}  # tuple(m) -> ModuleDescription, see graded_piece

    def tail_polyhedron(self) -> Polyhedron:
        return Polyhedron.from_points([(0,) * self.rank], self.tail)

    def polyhedron_at(self, y: ClosedPoint) -> Polyhedron:
        p = self.support.get(y)
        return self.tail_polyhedron() if p is None else p

    def support_points(self, exclude=None):
        return sorted((y for y in self.support if y != exclude),
                      key=lambda y: (y.is_infinity, y.to_str()))

    # -- validation ---------------------------------------------------------

    def validate(self) -> Report:
        """Over P1 deg D must also be a proper subset of the pointed tail
        sigma, decided by pairing sums: deg D's least pairing with g in the
        dual is the degree-weighted sum of its polyhedra's, so deg D lies in
        sigma when that is >= 0 at each dual generator, and then has 0 as a
        vertex when it is 0 at their sum, positive on sigma minus 0."""
        rep = Report("polyhedral divisor")
        if self.curve not in (A1, P1):
            rep.fail(f"unknown curve {self.curve!r}")
            return rep
        if not self.tail.is_pointed():
            rep.fail("tail cone is not pointed (dual weight cone would not be "
                     "full-dimensional)")
        for y, p in self.support.items():
            if y.is_infinity and self.curve == A1:
                rep.fail("infinity cannot support a divisor over the affine line")
            if p.tail != self.tail:
                rep.fail(f"polyhedron at [{y.to_str()}] has a different tail cone")
            if y.trusted:
                rep.trust(f"irreducibility of {y.to_str()} was not proven")
        if self.curve == P1 and rep.ok:
            def least(g):
                return sum(y.degree * min(dot(g, v) for v in p.vertices)
                           for y, p in self.support.items())

            gens = self.tail.dual().generators()
            if any(least(g) < 0 for g in gens):
                rep.fail("deg D is not contained in the tail cone")
            elif least(tuple(map(sum, zip(*gens)))) == 0:
                rep.fail("deg D is not a proper subset of the tail cone "
                         "(0 is a vertex of deg D)")
        return rep

    # -- evaluation ---------------------------------------------------------

    def eval(self, m) -> dict:
        """den * D(m) as ints: {y: den * min <m, D_y>} over the support
        points, so the coefficient of y in D(m) is its value over ``den``."""
        if not self.tail.dual().contains(m):
            raise DivisorError(
                f"weight {m} lies outside the dual of the tail cone")
        return {y: p.minimize(m) for y, p in self.support.items()}

    def graded_piece(self, m) -> ModuleDescription:
        """H^0 of the integral divisor floor(D(m)), built once per weight:
        the generator search, the kernel and membership all read the
        same pieces.  A weight outside the dual cone is never kept, so it
        raises on every call."""
        key = tuple(m)
        piece = self._pieces.get(key)
        if piece is None:
            den = self.den
            piece = self._pieces[key] = h0_generators(
                {y: a // den for y, a in self.eval(m).items()},
                self.curve, self.field)
        return piece

    def generator(self, m) -> tuple:
        """The free-module generator f_m over A1, as a ``factor_list``."""
        if self.curve != A1:
            raise DivisorError("free module generators exist over A1 only")
        return self.graded_piece(m).generator

    # -- degree and linearity ----------------------------------------------

    def degree_polyhedron(self, y_infinity=None) -> Polyhedron:
        """deg D, restricted to the complement of y_infinity when given."""
        return self._degree_sum(y_infinity)[1]

    def _degree_sum(self, y_infinity):
        """(points, deg D, parts): the support points off y_infinity, the
        degree-weighted sum of their polyhedra, and for each vertex of that
        sum its summand vertices, one per point in order."""
        points = self.support_points(exclude=y_infinity)
        if not points:
            deg = self.tail_polyhedron()
            return points, deg, {deg.vertices[0]: ()}
        return (points, *minkowski_weighted_sum(
            [(y.degree, self.support[y]) for y in points]))

    def linearity_fan(self, y_infinity=None):
        """Maximal cones of linearity of m -> D(m)|C' with per-point
        minimizing vertices.

        Returns a list of (cone in M_Q, v_deg, {point: vertex}), one per
        vertex v_deg of deg D over C', by vertex: the normal cone at v_deg,
        and the summand vertices that the Minkowski sum records v_deg as
        the sum of, which minimize over their polyhedra on the whole cone.
        """
        if self.curve == P1:
            if y_infinity is None:
                raise DivisorError("P1 needs a marked point at infinity")
            if not y_infinity.is_rational:
                raise DivisorError("the marked point at infinity must be rational")
        points, deg, parts = self._degree_sum(y_infinity)
        return [(cone, v_deg, dict(zip(points, parts[v_deg])))
                for v_deg, cone in deg.normal_fan()]

    # -- membership ---------------------------------------------------------

    def membership(self, f, m) -> bool:
        """Does f * chi^m lie in the graded algebra?"""
        piece = self.graded_piece(m)
        if f.is_zero():
            return True
        quot = times_factors(f, [(q, -e) for q, e in piece.generator], {})
        if not quot.is_poly():
            return False
        if self.curve == P1:
            return quot.num.degree <= piece.degree_bound
        return True


# -- generator search -------------------------------------------------------

class GeneratorCertificate:
    __slots__ = ("bound", "complete", "note")

    def __init__(self, bound: int, complete: bool, note: str):
        self.bound, self.complete, self.note = bound, complete, note


class AlgebraGenerator(Record):
    __slots__ = ("weight", "coeff")

    def __init__(self, weight: tuple, coeff: tuple):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "coeff", coeff)  # a factor_list

    def to_str(self) -> str:
        return f"{fmt_factors(self.coeff)} * chi^{self.weight}"


def algebra_generators(div: PolyhedralDivisor, bound: int):
    """Minimal generating set of the A1 graded algebra, certified on a box.

    Scans weights with coordinates bounded by ``bound``, repeatedly adding
    f_m chi^m for the smallest-norm weight whose graded piece is not yet
    reached by products of the chosen elements, then removes redundant
    members.  The reach fixpoint runs per factor (see ``saturate``).
    """
    if div.curve != A1:
        raise DivisorError("generator search is implemented over A1")
    dual = div.tail.dual()
    weights = [m for m in lattice_box(div.rank, bound)
               if any(m) and dual.contains(m)]
    weights.sort(key=lambda m: (sum(abs(c) for c in m), m))
    fgen = {m: div.generator(m) for m in weights}
    n = len(weights)
    where = {m: i for i, m in enumerate(weights)}

    # Each f_m is a product of distinct monic factors, so a reach value
    # h * f_m * k[t] with h a polynomial in those factors is an exponent
    # vector over every factor of every f_m: one column per factor, and one
    # zero column if no f_m has a factor.
    cols = {}
    for i, m in enumerate(weights):
        for poly, e in fgen[m]:
            cols.setdefault(poly, [0] * n)[i] = e
    cols = list(cols.values()) or [[0] * n]
    # splits[c][i]: (i1, i2, exponent of f_m1 * f_m2 / f_m in column c), one
    # per unordered pair with weights[i] = m1 + m2 in the box; users[i]: the
    # weights with a split that has weights[i] as a part
    splits = [[[] for _ in weights] for _ in cols]
    users = [set() for _ in weights]
    for i1, m1 in enumerate(weights):
        for i2 in range(i1, n):
            i = where.get(tuple(map(add, m1, weights[i2])))
            if i is not None:
                for c, col in zip(cols, splits):
                    col[i].append((i1, i2, c[i1] + c[i2] - c[i]))
                users[i1].add(i)
                users[i2].add(i)

    def saturate(chosen):
        """The indices of the weights that products of ``chosen`` reach:
        reach[m] = exponents of h with reachable submodule h * f_m * k[t]
        (None: unreached) is a greatest fixpoint of componentwise minima of
        sums, so it runs per factor on ints, by a worklist that revisits a
        weight only when a split part changed; m is reached if all read 0."""
        reached = set(range(n))
        for col in splits:
            reach = [0 if i in chosen else None for i in range(n)]
            queue, queued = deque(range(n)), [True] * n
            while queue:
                i = queue.popleft()
                queued[i] = False
                cur = reach[i]
                for i1, i2, q in col[i]:
                    h1, h2 = reach[i1], reach[i2]
                    if h1 is None or h2 is None:
                        continue
                    cand = h1 + h2 + q
                    if cand < 0:
                        raise DivisorError("superadditivity violated")
                    if cur is None or cand < cur:
                        cur = cand
                if cur != reach[i]:
                    reach[i] = cur
                    for u in users[i]:
                        if not queued[u]:
                            queued[u] = True
                            queue.append(u)
            reached = {i for i in reached if reach[i] == 0}
        return reached

    # weights are in scan order, so the first unreached one has least index
    chosen = []
    while len(reached := saturate(set(chosen))) < n:
        chosen.append(min(set(range(n)) - reached))

    # minimalization: drop members generated by the rest
    for i in list(chosen):
        trial = [g for g in chosen if g != i]
        if i in saturate(set(trial)):
            chosen = trial
    chosen = sorted(weights[i] for i in chosen)

    gens = [AlgebraGenerator((0,) * div.rank, ((Poly.x(div.field), 1),))]
    gens.extend(AlgebraGenerator(m, fgen[m]) for m in chosen)
    shell = max((max(abs(c) for c in m) for m in chosen), default=0)
    cert = GeneratorCertificate(
        bound=bound,
        complete=shell < bound,
        note=(f"every graded piece with weight coordinates up to {bound} is "
              f"generated; outermost generator shell {shell}"))
    return gens, cert
