"""Combinatorial classification of horizontal additive-group actions:
colorings of a polyhedral divisor, their associated cones, Demazure roots,
the coherence conditions with their floor-form counterparts, a toricity
criterion for surfaces, and bounded enumeration of coherent families."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, count, product, repeat
from math import gcd

from .curves import A1, P1, ClosedPoint, _small_candidates
from .fields import PrimeField, Rationals
from .geometry import (MAX_RANK, Cone, Polyhedron, dot, fmt_ratio, fmt_vec,
                       lattice_box, primitive, vadd, vsub)
from .reports import Record, Report
from .tvariety import PolyhedralDivisor


class ClassifierError(ValueError):
    pass


# -- colorings --------------------------------------------------------------

class Coloring(Record):
    """A divisor with a chosen vertex of D_y for every point of C', a marked
    rational point y0, and (for P1) a marked rational point at infinity.
    Each vertex is an int tuple over the divisor's ``den``."""

    __slots__ = ("divisor", "vertices", "y0", "y_infinity")

    def __init__(self, divisor: PolyhedralDivisor, vertices: dict,
                 y0: ClosedPoint, y_infinity: ClosedPoint | None = None):
        put = object.__setattr__
        put(self, "divisor", divisor)
        put(self, "vertices", vertices)
        put(self, "y0", y0)
        put(self, "y_infinity", y_infinity)

    def vertex(self, y: ClosedPoint):
        return self.vertices.get(y) or (0,) * self.divisor.rank

    def colored_points(self):
        """Points of C' carrying an explicitly colored vertex."""
        pts = set(self.vertices) | set(self.divisor.support)
        pts.discard(self.y_infinity)
        pts.add(self.y0)
        return sorted(pts, key=lambda y: (y.is_infinity, y.to_str()))

    def v_deg(self):
        return tuple(map(sum, zip(*([y.degree * x for x in self.vertex(y)]
                                    for y in self.colored_points()))))


def y0_check(c: Coloring, rep: Report):
    """Condition (ii) at y0: fail ``rep`` unless y0 is a finite rational
    point."""
    if c.y0.is_infinity or not c.y0.is_rational:
        rep.fail("(ii): y0 must be a finite rational point")


def lattice_check(c: Coloring, y: ClosedPoint, rep: Report):
    """Condition (ii) away from y0: fail ``rep`` if the vertex colored at y
    is not a lattice point, with a witness formatted when it is read."""
    v, den = c.vertex(y), c.divisor.den
    if y != c.y0 and any(x % den for x in v):
        rep.defer(lambda: [f"(ii): colored vertex {fmt_vec(v, den)} at "
                           f"[{y.to_str()}] is not a lattice point"])


def coloring_validate(c: Coloring) -> Report:
    rep = Report("coloring")
    rep.merge(c.divisor.validate())
    if not rep.ok:
        return rep
    curve = c.divisor.curve
    if curve == A1:
        if c.y_infinity is not None:
            rep.fail("(i): the affine line has no marked point at infinity")
            return rep
    else:
        if c.y_infinity is None:
            rep.fail("(i): a marked rational point at infinity is required")
            return rep
        if not c.y_infinity.is_rational:
            rep.fail("(i): the marked point at infinity is not rational")
            return rep
    y0_check(c, rep)
    if not rep.ok:
        return rep
    if c.y0 == c.y_infinity:
        rep.fail("(ii): y0 must lie in the complement of the marked point")
        return rep
    den = c.divisor.den
    for y in c.colored_points():
        v = c.vertex(y)
        poly = c.divisor.polyhedron_at(y)
        if v not in poly.vertices:
            rep.fail(f"(iii): {fmt_vec(v, den)} is not a vertex of the "
                     f"polyhedron at [{y.to_str()}]")
        lattice_check(c, y, rep)
    if not rep.ok:
        return rep
    deg = c.divisor.degree_polyhedron(c.y_infinity)
    if c.v_deg() not in deg.vertices:
        rep.fail(f"(iii): {fmt_vec(c.v_deg(), den)} is not a vertex of the "
                 "degree polyhedron")
    return rep


# -- associated cones -------------------------------------------------------

class AssociatedCones(Record):
    __slots__ = ("tau", "tau_tilde", "d", "ell", "u", "distinguished_ray")

    def __init__(self, tau: Cone, tau_tilde: Cone, d: int, ell: int, u: int,
                 distinguished_ray: tuple):
        put = object.__setattr__
        put(self, "tau", tau)              # in N_Q; its dual omega lies in M_Q
        put(self, "tau_tilde", tau_tilde)  # in N_Q x Q
        put(self, "d", d)
        put(self, "ell", ell)
        put(self, "u", u)
        put(self, "distinguished_ray", distinguished_ray)


def cover_degree(v0, den: int, p: int):
    """(d, ell, u): d = ell * p^u is the least common denominator of the
    vertex v0/den, and p does not divide ell."""
    d = ell = den // gcd(den, *v0)
    u = 0
    while p > 1 and ell % p == 0:
        ell, u = ell // p, u + 1
    return d, ell, u


def associated_cones(c: Coloring) -> AssociatedCones:
    # every generator is scaled by den, which leaves each cone unchanged
    div = c.divisor
    n, den = div.rank, div.den
    deg = div.degree_polyhedron(c.y_infinity)
    v_deg = c.v_deg()
    tau_gens = [vsub(v, v_deg) for v in deg.vertices]
    tau_gens.extend(div.tail.rays)
    tau = Cone.from_generators(tau_gens, n)
    v0 = c.vertex(c.y0)
    d, ell, u = cover_degree(v0, den, div.field.char_exponent)
    gens = [(*g, 0) for g in tau.generators()]
    gens.append((*v0, den))
    if div.curve == P1:
        shift = vsub(v_deg, v0)
        for v in div.polyhedron_at(c.y_infinity).vertices:
            gens.append((*vadd(v, shift), -den))
    # on a valid coloring tau_tilde is pointed: tau is, as the tangent cone
    # of deg D|C' at a vertex, and over P1 a line would put -x in tau for a
    # point x of deg D, which validate keeps in sigma minus 0, inside tau.
    # (v0, den) is its one generator of positive height, so an extreme ray
    tau_tilde = Cone.from_generators(gens, n + 1)
    return AssociatedCones(tau, tau_tilde, d, ell, u, primitive((*v0, den)))


# -- Demazure roots ---------------------------------------------------------

def demazure_root_check(cone: Cone, rho, candidate) -> bool:
    """candidate pairs to -1 with the distinguished ray rho, one of the
    cone's primitive extreme rays, and nonnegatively with every other one."""
    for r in cone.rays:
        val = dot(candidate, r)
        if r == rho:
            if val != -1:
                return False
        elif val < 0:
            return False
    return all(dot(candidate, l) == 0 for l in cone.lineality)


def demazure_roots_enumerate(cone: Cone, rho, bound: int,
                             denominator: int = 1):
    """All roots (m, c) of the lifted cone with m in the integer box of the
    given bound and the height c in (1/denominator)Z solved from the
    pairing with its distinguished ray rho, of positive last coordinate."""
    head, last = rho[:-1], rho[-1]
    out = []
    for m in lattice_box(len(head), bound):
        c = Fraction(-1 - dot(m, head), last)
        if denominator % c.denominator == 0 \
                and demazure_root_check(cone, rho, (*m, c)):
            out.append((*m, c))
    return sorted(out)


# -- coherent families ------------------------------------------------------

class CoherentFamily(Record):
    __slots__ = ("coloring", "e", "s", "lam")

    def __init__(self, coloring: Coloring, e: tuple, s: tuple, lam: tuple):
        put = object.__setattr__
        put(self, "coloring", coloring)
        put(self, "e", e)      # lattice vector in M
        put(self, "s", s)      # strictly increasing exponents
        put(self, "lam", lam)  # raw field elements, one per exponent

    def describe(self) -> str:
        field = self.coloring.divisor.field
        lam = ", ".join(field.to_str(x) for x in self.lam)
        return (f"e={self.e} s={self.s} lambda=({lam}) "
                f"y0=[{self.coloring.y0.to_str()}]")


def coherent_validate(theta: CoherentFamily) -> Report:
    rep = Report("coherent family")
    rep.merge(coloring_validate(theta.coloring))
    if rep.ok:
        rep.merge(family_validate(theta, associated_cones(theta.coloring)))
    return rep


def family_validate(theta: CoherentFamily, cones: AssociatedCones) -> Report:
    """Conditions (iii)-(vii) of a family on a valid coloring's cones; the
    lifted-vector and vertex witnesses are formatted when they are read."""
    rep = Report("coherent family")
    field = theta.coloring.divisor.field
    p = field.char_exponent
    s = tuple(theta.s)
    if not s:
        rep.fail("(iii): the exponent sequence must be nonempty")
        return rep
    if any(a >= b for a, b in zip(s, s[1:])):
        rep.fail("(iii): the exponent sequence must be strictly increasing")
    if p == 1:
        if s != (1,):
            rep.fail("(iii): over characteristic zero the sequence must be (1)")
    elif any(x < 0 for x in s):
        rep.fail("(iii): exponents must be nonnegative")
    elif s[0] == 0:
        rep.note("(iii): leading exponent 0 accepted (positive characteristic)")
    if len(theta.lam) != len(s):
        rep.fail("(iv): one coefficient per exponent is required")
    elif any(field.is_zero(x) for x in theta.lam):
        rep.fail("(iv): coefficients must be nonzero")
    if not rep.ok:
        return rep
    den = theta.coloring.divisor.den
    v0 = theta.coloring.vertex(theta.coloring.y0)
    fails = []
    for s_i in s:
        head = tuple(p ** s_i * x for x in theta.e)
        # den times the lifted vector (head, -1/d - <head, v0/den>)
        last = -(den // cones.d) - dot(head, v0)
        if last % den or not demazure_root_check(
                cones.tau_tilde, cones.distinguished_ray, (*head, last // den)):
            what = "a lattice vector" if last % den \
                else "a root of the lifted cone"
            fails.append((s_i, (*(den * x for x in head), last), what))
    if fails:
        rep.defer(lambda: [f"(iii): lifted vector {fmt_vec(v, den)} for "
                           f"exponent {s_i} is not {what}"
                           for s_i, v, what in fails])
    rep.merge(_vertex_conditions_only(theta))
    return rep


def _vertex_table(theta: CoherentFamily):
    """d, p^{s1}*e, v0 and, for every colored point other than y0, the row
    (point, p^u * epsilon, vertices of its polyhedron, colored vertex); d and
    u come from the denominators of v0 alone."""
    c = theta.coloring
    div = c.divisor
    p = div.field.char_exponent
    v0 = c.vertex(c.y0)
    d, _, u = cover_degree(v0, div.den, p)
    q = p ** theta.s[0]
    qe = tuple(q * x for x in theta.e)
    points = []
    for y in c.colored_points():
        if y == c.y0:
            continue
        points.append((y, p ** u * y.epsilon, div.polyhedron_at(y).vertices,
                       c.vertex(y)))
    return d, qe, v0, points


def _vertex_conditions_only(theta: CoherentFamily) -> Report:
    """The vertex inequalities (v)/(vi)/(vii) of a family whose coloring,
    exponents and coefficients are valid, each side times den. The failing
    vertices are kept as tuples and formatted when the report is read."""
    rep = Report("vertex conditions")
    c = theta.coloring
    div = c.divisor
    den = div.den
    d, qe, v0, points = _vertex_table(theta)
    fails = []

    def check(clause, verts, scale, rhs, skip=None):
        for v in verts:
            if v != skip and scale * dot(qe, v) < rhs:
                fails.append((clause, v, scale * dot(qe, v), rhs))

    for y, scale, verts, vy in points:
        check(f"(v): at [{y.to_str()}]", verts, scale,
              den + scale * dot(qe, vy), vy)
    check(f"(vi): at [{c.y0.to_str()}]", div.polyhedron_at(c.y0).vertices, d,
          den + d * dot(qe, v0), v0)
    if div.curve == P1:
        check("(vii): at infinity", div.polyhedron_at(c.y_infinity).vertices,
              d, -den - d * dot(qe, c.v_deg()))

    def witnesses():
        return [f"{clause} vertex {fmt_vec(v, den)}: {fmt_ratio(lhs, den)} < "
                f"{fmt_ratio(rhs, den)}" for clause, v, lhs, rhs in fails]

    if fails:
        rep.defer(witnesses)
    return rep


# -- floor-form conditions --------------------------------------------------

def floor_condition_check(theta: CoherentFamily, m_bound: int) -> Report:
    """Discrete counterpart of the vertex inequalities: floors of the
    piecewise-linear evaluation maps must jump by enough along e.

    It runs on integers, A = den*a for a value a of the maps, so that
    floor(s*a) = (s*A) // den, and on columns over the weight box: each
    vertex v is paired with every weight m at once, coordinate by
    coordinate, and <m + qe, v> = <m, v> + <qe, v> (qe = p^{s1}e). The tail
    cone is pointed, so its dual is cut out by one column <m, r> per ray.
    Violations come per weight in box order: (4) by row, (5), then (6); the
    failures are kept as tuples, and the strings and the weight box they
    name are built when the report is read."""
    rep = Report("floor conditions")
    c = theta.coloring
    div = c.divisor
    den = div.den
    d, qe, v0, points = _vertex_table(theta)
    qv0 = dot(qe, v0)
    span = range(-m_bound, m_bound + 1)

    def column(w):  # <m, w> for every m of lattice_box(rank, m_bound)
        col = [0]
        for x in w:
            col = [a + b for b in [x * i for i in span] for a in col]
        return col

    # m and m + qe are in the dual cone when <m, r> >= max(0, -<qe, r>)
    keep = [True] * len(span) ** div.rank
    for r in div.tail.rays:
        t = max(0, -dot(qe, r))
        keep = [k and x >= t for k, x in zip(keep, column(r))]

    # per clause: number, where, scale, vertices v and shift, bound, and the
    # value of min <m + qe, v - shift> at which the clause does not apply
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
        # every polyhedron of the divisor has the tail cone as its tail, so
        # at m and m + qe, both in the dual cone, its minimum is at a vertex
        ws = [vsub(v, shift) for v in verts] if shift else verts
        cols = [list(compress(column(w), keep)) for w in ws]
        qcols = [[x + q for x in col]
                 for q, col in zip([dot(qe, w) for w in ws], cols)]
        lo, hi = (cols[0], qcols[0]) if len(ws) == 1 else \
            (map(min, *cols), map(min, *qcols))
        fails += [(i, k, n, where, s * b // den, s * a // den, rhs)
                  for i, a, b, o in zip(count(), lo, hi, off)
                  if b != o and s * b // den - s * a // den < rhs]

    def witnesses():
        box = list(compress(lattice_box(div.rank, m_bound), keep))
        return [f"({n}): m={box[i]}{where}: {fb} - {fa} < {rhs}"
                for i, _, n, where, fb, fa, rhs in sorted(fails)]

    if fails:
        rep.defer(witnesses)
    return rep


def equivalence_probe(trials: int, p: int, curve: str, rank: int,
                      m_bound: int = 12, seed: int = 0) -> Report:
    """Cross-check: on random small instances over Q (p = 1) or F_p the
    vertex inequalities and the floor conditions over a weight box must
    agree."""
    rep = Report("equivalence probe")
    rng = random.Random(seed)
    if curve not in (A1, P1) or rank not in range(1, MAX_RANK + 1) or p < 1:
        raise ClassifierError(f"the probe draws over A1 or P1 at rank 1.."
                              f"{MAX_RANK}, over Q (p = 1) or F_p, not "
                              f"{curve!r} at rank {rank!r} with p = {p!r}")
    field = PrimeField(p) if p > 1 else Rationals()
    drawn = checked = 0
    while checked < trials:
        inst = _random_family(rng, field, curve, rank)
        drawn += 1
        if inst is None:
            continue
        # witnesses can require one full step of p^{s1}e beyond the base box
        step = max(abs(x) for x in inst.e) * field.char_exponent ** inst.s[0]
        vrep = _vertex_conditions_only(inst)
        frep = floor_condition_check(inst, m_bound + step)
        if vrep.ok != frep.ok:
            rep.fail(f"disagreement on {inst.describe()} over {field!r}: "
                     f"vertex={vrep.ok} floor={frep.ok}; "
                     f"{(vrep.violations + frep.violations)[:3]}")
        checked += 1
    rep.note(f"{checked} instances agreed" if rep.ok else "counterexample found")
    rep.note(f"drew {drawn}: {drawn - checked} rejected, {checked} checked")
    return rep


@lru_cache(maxsize=64)
def _tail_cone(ray, rank):
    """The sampler's tail, the zero cone (ray None) or the cone on one 0/1
    vector, and its dual's generators, built once per process. Both tails
    are pointed, so their duals are full-dimensional."""
    tail = Cone.from_generators([ray], rank) if ray else Cone.zero(rank)
    return tail, tail.dual().generators()


@lru_cache(maxsize=16)
def _sample_points(field):
    """The sampler's finite points: t = c for the first three constants."""
    consts = range(field.p) if isinstance(field, PrimeField) else range(3)
    return tuple(ClosedPoint.rational(field, field.from_int(c))
                 for c in consts[:3])


_INFINITY = ClosedPoint.infinity()
# a drawn coordinate a/b as the int 6a//b, at [a + 2][b - 1]
_COORDS = tuple(tuple(6 * a // b for b in (1, 2, 3)) for a in range(-2, 3))


def _below(bits, n):
    """rng.randrange(n) from ``bits = rng.getrandbits``, on exactly CPython's
    bits: n.bit_length() bits a try, again while the value is n or more. So
    a + _below(bits, b - a + 1) is rng.randint(a, b), draw for draw."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_family(rng, field, curve, rank):
    """One random small coloring + family, or None if the draw is invalid.

    Integers come from raw ``rng.getrandbits`` tries, on randint's bits:
    inline for the tail's 0/1 ray, the point count, each vertex count and
    every vertex coordinate a/b (b <= 3), a 3-bit try for a then a 2-bit
    one for b, read as the int 6a/b over den 6; by `_below` for e and s.
    Each point's coordinates, infinity's too, are drawn as one flat int
    list before anything is built. Over P1 the flat lists reject a zero
    tail (deg D = {0} has 0 as a vertex) and sums of one raw point per
    support point outside the tail, which put deg D outside it. Only a draw
    that passes is zipped into vertex tuples and polyhedra; `validate`
    rejects the rest."""
    bits = rng.getrandbits
    ray = None
    if rng.random() >= 0.5:
        ray = []
        for _ in range(rank):
            r = bits(2)
            while r > 1:
                r = bits(2)
            ray.append(r)
    pts = _sample_points(field)
    n = bits(2)  # below the 2 or 3 sample points
    while n >= len(pts):
        n = bits(2)
    points = pts[:n + 1] + (_INFINITY,) * (curve == P1)
    flat = []
    for y in points:
        k = 0
        if y is not _INFINITY:
            k = bits(2)
            while k > 1:
                k = bits(2)
        coords = []
        for _ in range(rank * (k + 1)):
            a = bits(3)
            while a > 4:
                a = bits(3)
            b = bits(2)
            while b > 2:
                b = bits(2)
            coords.append(_COORDS[a][b])
        flat.append(coords)
    if curve == P1 and not (ray and any(ray)):
        return None
    tail, dual_gens = _tail_cone(tuple(ray) if ray else None, rank)
    # a sum's least pairing with a generator of the dual cone is the sum of
    # each point's least pairing (every degree is 1); a point has one or two
    # vertices, and dot(g, coords) pairs g with the first
    if curve == P1 and any(
            sum([min(dot(g, c), dot(g, c[rank:])) if len(c) > rank
                 else dot(g, c) for c in flat]) < 0 for g in dual_gens):
        return None
    support = {y: Polyhedron.from_points(list(zip(*[iter(coords)] * rank)),
                                         tail)  # rank at a time
               for y, coords in zip(points, flat)}
    div = PolyhedralDivisor(field, curve, tail, support, 6)
    if not div.validate().ok:
        return None
    y_inf = _INFINITY if curve == P1 else None
    # the divisor is valid and y_inf rational, so the fan raises nothing
    _, _, vertices = rng.choice(div.linearity_fan(y_inf))
    y0 = rng.choice([y for y in support if not y.is_infinity])
    # the fan makes the coloring valid (the assigned vertices sum to the
    # cone's vertex of deg D) but for the lattice condition (ii) away from y0
    for y, v in vertices.items():
        if y != y0 and any(x % 6 for x in v):
            return None
    e = tuple([_below(bits, 5) - 2 for _ in range(rank)])
    s = (1,) if field.char_exponent == 1 else (_below(bits, 3),)
    return CoherentFamily(Coloring(div, vertices, y0, y_inf), e, s,
                          (field.one(),) * len(s))


# -- toricity for surfaces --------------------------------------------------

def toricity_check(div: PolyhedralDivisor) -> Report:
    """Surface criterion (rank 1): with a hyperbolic grading the check does
    not apply; otherwise the fractional part of D(1) must sit in at most one
    rational point over A1 and at most two over P1."""
    rep = Report("toricity criterion")
    if not div.tail.rays:
        rep.note("not applicable: hyperbolic grading (trivial tail cone)")
        return rep
    one = (1,) if div.tail.dual().contains((1,)) else (-1,)
    frac = [y for y, a in div.eval(one).items() if a % div.den]
    bad = [y for y in frac if not y.is_rational]
    limit = 1 if div.curve == A1 else 2
    if bad:
        rep.fail("fractional part supported at a non-rational point: "
                 + ", ".join(y.to_str() for y in bad))
    if len(frac) > limit:
        rep.fail(f"fractional part supported at {len(frac)} points "
                 f"(limit {limit})")
    if rep.ok:
        rep.note("criterion met")
    return rep


# -- bounded enumeration ----------------------------------------------------

def _off_support_point(div: PolyhedralDivisor):
    """A rational point of the affine line away from the divisor support."""
    for c in _small_candidates(div.field):
        y = ClosedPoint.rational(div.field, c)
        if y not in div.support:
            return y
    return None


def candidate_colorings(div: PolyhedralDivisor, y_infinity=None):
    """All colorings arising from the linearity fan with y0 among rational
    support points plus one off-support representative."""
    y0s = [y for y in div.support_points(exclude=y_infinity)
           if y.is_rational and not y.is_infinity]
    extra = _off_support_point(div)
    if extra is not None:
        y0s.append(extra)
    out = []
    for cone, v_deg, assign in div.linearity_fan(y_infinity):
        for y0 in y0s:
            vertices = {y0: (0,) * div.rank, **assign}
            c = Coloring(div, vertices, y0, y_infinity)
            if coloring_validate(c).ok and c not in out:
                out.append(c)
    return out


def enumerate_coherent(div: PolyhedralDivisor, e_bound: int, s_max: int,
                       lam_sample, y_infinity=None):
    """All coherent families on the candidate grid given by the bounds."""
    p = div.field.char_exponent
    # over F_p: the nonempty strictly increasing sequences in 0..s_max
    seqs = [(1,)] if p == 1 else [s for r in range(1, s_max + 2)
                                  for s in combinations(range(s_max + 1), r)]
    found = []
    for coloring in candidate_colorings(div, y_infinity):
        cones = associated_cones(coloring)
        for e in lattice_box(div.rank, e_bound):
            for s in seqs:
                for lam in product(lam_sample, repeat=len(s)):
                    theta = CoherentFamily(coloring, tuple(e), s, lam)
                    if family_validate(theta, cones).ok:
                        found.append(theta)
    return sorted(found, key=lambda t: (t.e, t.s, t.describe()))

