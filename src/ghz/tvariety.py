"""Polyhedral divisors over the affine or projective line and the graded
algebra they describe: evaluation, graded pieces, degree polyhedron,
linearity fan, membership and generator search."""

from __future__ import annotations

from itertools import product

from .curves import A1, P1, ClosedPoint, ModuleDescription, h0_generators
from .geometry import Cone, Polyhedron, dot, minkowski_weighted_sum
from .polynomials import Poly, fmt_factors, times_factors
from .reports import Record, Report


class DivisorError(ValueError):
    pass


class PolyhedralDivisor:
    """tail cone sigma plus one sigma-tailed polyhedron per support point,
    over A1 or P1: the parser and the sampler build no other divisor.

    Points outside the support implicitly carry sigma itself. Vertices are
    int tuples over one positive denominator ``den``: the polyhedron at y is
    (1/den) * support[y]. ``den`` need not be the least one, and nothing
    computed from the divisor depends on it. A divisor is never changed
    after construction, so its graded pieces and weight tables are kept.
    """

    __slots__ = ("field", "curve", "rank", "tail", "support", "den", "_pieces",
                 "_tables")

    def __init__(self, field, curve, tail: Cone, support: dict, den: int):
        self.field = field
        self.curve = curve
        self.rank = tail.n
        self.tail = tail
        self.support = dict(support)
        self.den = den
        self._pieces = {}  # tuple(m) -> ModuleDescription, see graded_piece
        self._tables = None  # bound -> {m: eval(m)}, see weight_table

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
        if not self.tail.is_pointed():
            rep.fail("tail cone is not pointed (dual weight cone would not be "
                     "full-dimensional)")
        for y in self.support:
            if y.is_infinity and self.curve == A1:
                rep.fail("infinity cannot support a divisor over the affine line")
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

    def weight_table(self, bound: int) -> dict:
        """{m: eval(m)} over the weight cone's points m in [-bound, bound]^n,
        in ``lattice_box`` order, built once per bound.  For m = (x, *r),
        each inequality <m, g> >= 0 of the cone reads a*x + <r, g'> >= 0,
        so the cone cuts an exact range of x out of the box and no point
        outside it is formed.  Every polyhedron has the tail as its tail,
        so on the cone it is least at a vertex; the pairings with r are
        formed once per r."""
        if self._tables is None:
            self._tables = {}
        table = self._tables.get(bound)
        if table is not None:
            return table
        table = self._tables[bound] = {}
        gens = [(g[0], g[1:]) for g in self.tail.generators()]
        verts = [(y, [(v[0], v[1:]) for v in p.vertices])
                 for y, p in self.support.items()]
        for r in product(range(-bound, bound + 1), repeat=self.rank - 1):
            r = r[::-1]  # the last coordinate outermost, as in lattice_box
            lo, hi = -bound, bound
            for a, g in gens:
                s = dot(r, g)
                if a > 0:
                    lo = max(lo, -(s // a))
                elif a < 0:
                    hi = min(hi, s // -a)
                elif s < 0:  # no x meets it
                    hi = -bound - 1
            pairs = [(y, [(a, dot(r, v)) for a, v in vs]) for y, vs in verts]
            for x in range(lo, hi + 1):
                table[(x, *r)] = {y: min([a * x + s for a, s in vs])
                                  for y, vs in pairs}
        return table

    def graded_piece(self, m) -> ModuleDescription:
        """H^0 of the integral divisor floor(D(m)), built once per weight:
        the chosen generators, the kernel and membership all read the
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
        vertex v_deg of deg D over C' (over P1, off the rational point
        ``y_infinity``), by vertex: the normal cone at v_deg, and the summand
        vertices that the Minkowski sum records v_deg as the sum of, which
        minimize over their polyhedra on the whole cone.
        """
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

    Scans the weights with coordinates bounded by ``bound`` by norm, adding
    f_m chi^m for each weight that products of the chosen elements do not
    reach, then removes redundant members.  Only the weight table's
    integers are read; f_m is built for the chosen weights alone.

    f_m = prod q_y^e_y(m) with e_y(m) = -floor(D(m)_y), one column per
    support point (one zero column without support).  A split m = m1 + m2
    reaches h * f_m * k[t] with h = f_m1 * f_m2 / f_m, whose exponent
    q = e(m1) + e(m2) - e(m) is >= 0 since floor(D) is superadditive.  Per
    column, the exponent of the least reached h is the greatest fixpoint of
    the min over splits of h1 + h2 + q, 0 at chosen weights, and m is
    reached when it is 0 in every column.  All three summands are >= 0, so
    a 0 needs h1 = h2 = q = 0, and every value of the fixpoint has a finite
    derivation from the chosen weights: its zeros are the least closure of
    the chosen weights under the column's zero splits, a Horn closure on
    booleans.  A new chosen weight only grows each closure, so the greedy
    step propagates from it alone; the minimalization keeps a weight with
    no zero split in some column at once, as the rest never reach it there.
    """
    if div.curve != A1:
        raise DivisorError("generator search is implemented over A1")
    table = div.weight_table(bound)
    weights = sorted((m for m in table if any(m)),
                     key=lambda m: (sum(abs(c) for c in m), m))
    n, den = len(weights), div.den
    cols = list(zip(*([-(a // den) for a in table[m].values()]
                      for m in weights))) or [(0,) * n]
    # A sum of two box weights has coordinates in [-2 bound, 2 bound], so
    # signed digits in radix 4 bound + 1 key it uniquely and additively.
    radix = 4 * bound + 1
    keys = [sum(c * radix ** j for j, c in enumerate(m)) for m in weights]
    where = {k: i for i, k in enumerate(keys)}
    # uses[c][j]: (partner, sum) for each split with weights[j] as a part
    # whose exponent is 0 in column c; split[c][i]: weights[i] has one
    uses = [[[] for _ in weights] for _ in cols]
    split = [bytearray(n) for _ in cols]
    for i1, k1 in enumerate(keys):
        for i2 in range(i1, n):
            i = where.get(k1 + keys[i2])
            if i is None:
                continue
            for e, use, has in zip(cols, uses, split):
                q = e[i1] + e[i2] - e[i]
                if q == 0:
                    use[i1].append((i2, i))
                    if i2 != i1:
                        use[i2].append((i1, i))
                    has[i] = 1
                elif q < 0:
                    raise DivisorError("superadditivity violated")

    def close(use, reached, new):
        """Grow ``reached`` in place by ``new`` and what it then reaches."""
        todo = [j for j in new if not reached[j]]
        for j in todo:
            reached[j] = 1
        while todo:
            for k, i in use[todo.pop()]:
                if reached[k] and not reached[i]:
                    reached[i] = 1
                    todo.append(i)
        return reached

    # reach only grows, so a weight the earlier choices miss is the least
    # unreached one when the scan comes to it
    reached = [bytearray(n) for _ in cols]
    chosen = []
    for i in range(n):
        if not all(r[i] for r in reached):
            chosen.append(i)
            for use, r in zip(uses, reached):
                close(use, r, (i,))

    # minimalization: drop members generated by the rest
    for i in list(chosen):
        if all(has[i] for has in split):
            trial = [g for g in chosen if g != i]
            if all(close(use, bytearray(n), trial)[i] for use in uses):
                chosen = trial
    chosen = sorted(weights[i] for i in chosen)

    gens = [AlgebraGenerator((0,) * div.rank, ((Poly.x(div.field), 1),))]
    gens.extend(AlgebraGenerator(m, div.generator(m)) for m in chosen)
    shell = max((max(abs(c) for c in m) for m in chosen), default=0)
    cert = GeneratorCertificate(
        bound=bound,
        complete=shell < bound,
        note=(f"every graded piece with weight coordinates up to {bound} is "
              f"generated; outermost generator shell {shell}"))
    return gens, cert
