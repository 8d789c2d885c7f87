"""Combinatorial classification of horizontal additive-group actions:
colorings of a polyhedral divisor, their associated cones, Demazure roots,
the coherence conditions with their floor-form counterparts, a toricity
criterion for surfaces, and bounded enumeration of coherent families."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm

from .curves import A1, P1, ClosedPoint, insep_profile
from .fields import PrimeField, Rationals
from .geometry import (Cone, GeometryError, Polyhedron, dot, lattice_box,
                       primitive, vec, vadd, vscale, vsub)
from .reports import Report
from .tvariety import DivisorError, PolyhedralDivisor


class ClassifierError(ValueError):
    pass


# -- colorings --------------------------------------------------------------

@dataclass(frozen=True)
class Coloring:
    """A divisor with a chosen vertex of D_y for every point of C', a marked
    rational point y0, and (for P1) a marked rational point at infinity."""

    divisor: PolyhedralDivisor
    vertices: dict
    y0: ClosedPoint
    y_infinity: ClosedPoint | None = None

    def vertex(self, y: ClosedPoint):
        v = self.vertices.get(y)
        if v is None:
            return tuple(Fraction(0) for _ in range(self.divisor.rank))
        return vec(v)

    def colored_points(self):
        """Points of C' carrying an explicitly colored vertex."""
        pts = set(self.vertices) | set(self.divisor.support)
        pts.discard(self.y_infinity)
        pts.add(self.y0)
        return sorted(pts, key=lambda y: (y.is_infinity, y.to_str()))

    def v_deg(self):
        acc = tuple(Fraction(0) for _ in range(self.divisor.rank))
        for y in self.colored_points():
            acc = vadd(acc, vscale(y.degree, self.vertex(y)))
        return acc


def _fmt_vec(v):
    return "(" + ", ".join(str(x) for x in v) + ")"


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
    if c.y0.is_infinity or not c.y0.is_rational:
        rep.fail("(ii): y0 must be a finite rational point")
        return rep
    if c.y0 == c.y_infinity:
        rep.fail("(ii): y0 must lie in the complement of the marked point")
        return rep
    for y in c.colored_points():
        v = c.vertex(y)
        poly = c.divisor.polyhedron_at(y)
        if v not in poly.vertices:
            rep.fail(f"(iii): {_fmt_vec(v)} is not a vertex of the polyhedron "
                     f"at [{y.to_str()}]")
        if y != c.y0 and any(x.denominator != 1 for x in v):
            rep.fail(f"(ii): colored vertex {_fmt_vec(v)} at [{y.to_str()}] "
                     "is not a lattice point")
    if not rep.ok:
        return rep
    deg, _ = c.divisor.deg_restricted(c.y_infinity)
    if c.v_deg() not in deg.vertices:
        rep.fail(f"(iii): {_fmt_vec(c.v_deg())} is not a vertex of the degree "
                 "polyhedron")
    return rep


# -- associated cones -------------------------------------------------------

@dataclass(frozen=True)
class AssociatedCones:
    omega: Cone       # in M_Q
    tau: Cone         # omega dual, in N_Q
    tau_tilde: Cone   # in N_Q x Q
    d: int
    ell: int
    u: int
    distinguished_ray: tuple


def _denominator_lcm(v):
    return lcm(*[Fraction(x).denominator for x in v]) if v else 1


def _split_char_power(d: int, p: int):
    """d = ell * p^u with gcd(ell, p) = 1."""
    u = 0
    if p > 1:
        while d % p == 0:
            d //= p
            u += 1
    return d, u


def associated_cones(c: Coloring) -> AssociatedCones:
    div = c.divisor
    n = div.rank
    deg, _ = div.deg_restricted(c.y_infinity)
    v_deg = c.v_deg()
    tau_gens = [vsub(v, v_deg) for v in deg.vertices]
    tau_gens.extend(div.tail.rays)
    tau = Cone.from_generators(tau_gens, n)
    omega = tau.dual()
    v0 = c.vertex(c.y0)
    d = _denominator_lcm(v0)
    ell, u = _split_char_power(d, div.field.char_exponent)
    gens = [tuple(list(g) + [0]) for g in tau.generators()]
    gens.append(tuple(list(v0) + [1]))
    if div.curve == P1:
        shift = vsub(v_deg, v0)
        for v in div.polyhedron_at(c.y_infinity).vertices:
            gens.append(tuple(list(vadd(v, shift)) + [-1]))
    tau_tilde = Cone.from_generators(gens, n + 1)
    ray = primitive(tuple(list(v0) + [1]))
    if ray not in tau_tilde.rays:
        raise ClassifierError(
            "the ray through the marked vertex is not extreme in the lifted cone")
    return AssociatedCones(omega, tau, tau_tilde, d, ell, u, ray)


# -- Demazure roots ---------------------------------------------------------

def demazure_root_check(cone: Cone, distinguished_ray, candidate) -> bool:
    """candidate pairs to -1 with the primitive generator of the
    distinguished ray and nonnegatively with every other extreme ray."""
    rho = primitive(distinguished_ray)
    if rho not in cone.rays:
        raise ClassifierError(f"{rho} is not an extreme ray of the cone")
    candidate = vec(candidate)
    for r in cone.rays:
        val = dot(candidate, r)
        if r == rho:
            if val != -1:
                return False
        elif val < 0:
            return False
    return all(dot(candidate, l) == 0 for l in cone.lineality)


def demazure_roots_enumerate(cone: Cone, distinguished_ray, bound: int,
                             denominator: int = 1):
    """All roots (m, c) with m in the integer box of the given bound and the
    height c in (1/denominator)Z solved from the distinguished pairing."""
    rho = primitive(distinguished_ray)
    if rho not in cone.rays:
        raise ClassifierError(f"{rho} is not an extreme ray of the cone")
    n = cone.n - 1
    head, last = rho[:n], rho[n]
    out = []
    for m in lattice_box(n, bound):
        if last != 0:
            c = Fraction(-1 - dot(m, head), last)
            if denominator % c.denominator != 0:
                continue
            heights = [c]
        else:
            if dot(m, head) != -1:
                continue
            heights = [Fraction(j, denominator)
                       for j in range(-bound * denominator,
                                      bound * denominator + 1)]
        for c in heights:
            cand = tuple(list(vec(m)) + [c])
            if demazure_root_check(cone, rho, cand):
                out.append(cand)
    return sorted(out)


# -- coherent families ------------------------------------------------------

@dataclass(frozen=True)
class CoherentFamily:
    coloring: Coloring
    e: tuple            # lattice vector in M
    s: tuple            # strictly increasing exponents
    lam: tuple          # raw field elements, one per exponent

    def describe(self) -> str:
        field = self.coloring.divisor.field
        lam = ", ".join(field.to_str(x) for x in self.lam)
        return (f"e={self.e} s={self.s} lambda=({lam}) "
                f"y0=[{self.coloring.y0.to_str()}]")


def _root_tilde(cones: AssociatedCones, e, s_i, p, v0):
    q = p ** s_i
    head = tuple(q * x for x in vec(e))
    height = Fraction(-1, cones.d) - dot(head, v0)
    return tuple(list(head) + [height])


def coherent_validate(theta: CoherentFamily) -> Report:
    rep = Report("coherent family")
    c = theta.coloring
    rep.merge(coloring_validate(c))
    if not rep.ok:
        return rep
    div = c.divisor
    field = div.field
    p = field.char_exponent
    cones = associated_cones(c)
    s = tuple(theta.s)
    if not s or any(int(x) != x for x in s):
        rep.fail("(iii): the exponent sequence must be nonempty integers")
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
    v0 = c.vertex(c.y0)
    for s_i in s:
        cand = _root_tilde(cones, theta.e, s_i, p, v0)
        if Fraction(cand[-1]).denominator != 1:
            rep.fail(f"(iii): lifted vector {_fmt_vec(cand)} for exponent {s_i} is not "
                     "a lattice vector")
        elif not demazure_root_check(cones.tau_tilde, cones.distinguished_ray,
                                     cand):
            rep.fail(f"(iii): lifted vector {_fmt_vec(cand)} for exponent {s_i} is not "
                     "a root of the lifted cone")
    q = p ** s[0]
    qe = tuple(q * x for x in vec(theta.e))
    d = cones.d
    pu = p ** cones.u
    for y in c.colored_points():
        if y == c.y0:
            continue
        eps = 1 if y.is_infinity else insep_profile(y).epsilon
        vy = c.vertex(y)
        rhs = 1 + eps * pu * dot(qe, vy)
        for v in div.polyhedron_at(y).vertices:
            if v == vy:
                continue
            if eps * pu * dot(qe, v) < rhs:
                rep.fail(f"(v): at [{y.to_str()}] vertex {_fmt_vec(v)}: "
                         f"{eps * pu * dot(qe, v)} < {rhs}")
    rhs0 = 1 + d * dot(qe, v0)
    for v in div.polyhedron_at(c.y0).vertices:
        if v == v0:
            continue
        if d * dot(qe, v) < rhs0:
            rep.fail(f"(vi): at [{c.y0.to_str()}] vertex {_fmt_vec(v)}: "
                     f"{d * dot(qe, v)} < {rhs0}")
    if div.curve == P1:
        rhs_inf = -1 - d * dot(qe, c.v_deg())
        for v in div.polyhedron_at(c.y_infinity).vertices:
            if d * dot(qe, v) < rhs_inf:
                rep.fail(f"(vii): at infinity vertex {_fmt_vec(v)}: "
                         f"{d * dot(qe, v)} < {rhs_inf}")
    return rep


# -- floor-form conditions --------------------------------------------------

def floor_condition_check(theta: CoherentFamily, m_bound: int) -> Report:
    """Discrete counterpart of the vertex inequalities: floors of the
    piecewise-linear evaluation maps must jump by enough along e."""
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
    rhs0 = 1 + d * dot(qe, v0)
    # per colored point: (point, pu * eps, vertices, colored vertex)
    points = []
    for y in c.colored_points():
        if y == c.y0:
            continue
        eps = 1 if y.is_infinity else insep_profile(y).epsilon
        points.append((y, pu * eps, div.polyhedron_at(y).vertices,
                       c.vertex(y)))
    verts0 = div.polyhedron_at(c.y0).vertices
    verts_inf = div.polyhedron_at(c.y_infinity).vertices \
        if div.curve == P1 else None

    # every polyhedron of the divisor has the tail cone as its tail, so at
    # m and m + qe, both in the dual cone, its minimum is at a vertex
    def low(verts, m):
        return min(dot(m, v) for v in verts)

    for m in lattice_box(div.rank, m_bound):
        m1 = vec(m)
        if not dual.contains(m1):
            continue
        m2 = vadd(m1, qe)
        if not dual.contains(m2):
            continue
        for y, scale, verts, vy in points:
            a = low(verts, m1) - dot(m1, vy)
            b = low(verts, m2) - dot(m2, vy)
            if b != 0 and floor(scale * b) - floor(scale * a) < 1:
                rep.fail(f"(4): m={m} at [{y.to_str()}]: "
                         f"{floor(scale * b)} - {floor(scale * a)} < 1")
        h0a, h0b = low(verts0, m1), low(verts0, m2)
        if h0b != dot(m2, v0):
            if floor(d * h0b) - floor(d * h0a) < rhs0:
                rep.fail(f"(5): m={m}: {floor(d * h0b)} - {floor(d * h0a)} "
                         f"< {rhs0}")
        if verts_inf is not None:
            ga = low(verts_inf, m1) + dot(m1, v_deg)
            gb = low(verts_inf, m2) + dot(m2, v_deg)
            if floor(d * gb) - floor(d * ga) < -1:
                rep.fail(f"(6): m={m}: {floor(d * gb)} - {floor(d * ga)} < -1")
    return rep


def _vertex_conditions_only(theta: CoherentFamily) -> Report:
    """The (v)/(vi)/(vii) part of coherent_validate in isolation."""
    full = coherent_validate(theta)
    rep = Report("vertex conditions")
    for v in full.violations:
        if v.startswith(("(v)", "(vi)", "(vii)")):
            rep.fail(v)
    return rep


def equivalence_probe(trials: int, p: int, curve: str, rank: int,
                      m_bound: int = 12, seed: int = 0) -> Report:
    """Cross-check: on random small instances the vertex inequalities and the
    floor conditions over a weight box must agree."""
    rep = Report("equivalence probe")
    rng = random.Random(seed)
    field = PrimeField(p) if p > 1 else Rationals()
    checked = skipped = 0
    while checked < trials:
        inst = _random_family(rng, field, curve, rank)
        if inst is None:
            continue
        # witnesses can require one full step of p^{s1}e beyond the base box
        p_eff = field.char_exponent
        step = max(abs(p_eff ** inst.s[0] * x) for x in inst.e) if inst.e else 0
        try:
            vrep = _vertex_conditions_only(inst)
            frep = floor_condition_check(inst, m_bound + step)
        except ClassifierError:
            skipped += 1
            continue
        if vrep.ok != frep.ok:
            rep.fail(f"disagreement on {inst.describe()} over {field!r}: "
                     f"vertex={vrep.ok} floor={frep.ok}; "
                     f"{(vrep.violations + frep.violations)[:3]}")
        checked += 1
    rep.note(f"{checked} instances agreed" if rep.ok else "counterexample found")
    rep.note(f"skipped {skipped} instances (ClassifierError)")
    return rep


def _random_family(rng, field, curve, rank):
    """One random small coloring + family, or None if the draw is invalid."""
    def rand_vertex():
        return tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for _ in range(rank))

    tail = Cone.zero(rank) if rng.random() < 0.5 else Cone.from_generators(
        [tuple(rng.randint(0, 1) for _ in range(rank)) or (1,) * rank], rank)
    if tail.dual().dim != rank:
        tail = Cone.zero(rank)
    consts = list(range(field.p)) if isinstance(field, PrimeField) \
        else [0, 1, 2]
    pts = [ClosedPoint.rational(field, field.from_int(c)) for c in consts[:3]]
    support = {}
    for y in pts[:rng.randint(1, min(3, len(pts)))]:
        verts = [rand_vertex() for _ in range(rng.randint(1, 2))]
        support[y] = Polyhedron.from_points(verts, tail)
    if curve == P1:
        support[ClosedPoint.infinity()] = Polyhedron.from_points(
            [rand_vertex()], tail)
    div = PolyhedralDivisor(field, curve, tail, support)
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
        if y != y0 and any(x.denominator != 1 for x in v):
            return None
    coloring = Coloring(div, vertices, y0, y_inf)
    if not coloring_validate(coloring).ok:
        return None
    e = tuple(rng.randint(-2, 2) for _ in range(rank))
    p = field.char_exponent
    s = (1,) if p == 1 else (rng.randint(0, 2),)
    return CoherentFamily(coloring, e, s, (field.one(),) * len(s))


# -- toricity for surfaces --------------------------------------------------

def toricity_check(div: PolyhedralDivisor) -> Report:
    """Surface criterion (rank 1): with a hyperbolic grading the check does
    not apply; otherwise the fractional part of D(1) must sit in at most one
    rational point over A1 and at most two over P1."""
    if div.rank != 1:
        raise ClassifierError("the toricity criterion applies to rank 1 only")
    rep = Report("toricity criterion")
    if not div.tail.rays:
        rep.note("not applicable: hyperbolic grading (trivial tail cone)")
        return rep
    one = (1,) if div.tail.dual().contains((1,)) else (-1,)
    frac = div.eval(one).fractional()
    bad = [y for y in frac.support() if not y.is_rational]
    limit = 1 if div.curve == A1 else 2
    if bad:
        rep.fail("fractional part supported at a non-rational point: "
                 + ", ".join(y.to_str() for y in bad))
    if len(frac.support()) > limit:
        rep.fail(f"fractional part supported at {len(frac.support())} points "
                 f"(limit {limit})")
    if rep.ok:
        rep.note("criterion met")
    return rep


# -- bounded enumeration ----------------------------------------------------

def _off_support_point(div: PolyhedralDivisor):
    """A rational point of the affine line away from the divisor support."""
    from .curves import _small_candidates

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
            vertices = dict(assign)
            if y0 not in vertices:
                vertices[y0] = tuple(Fraction(0) for _ in range(div.rank))
            if any(x.denominator != 1 for y, v in vertices.items()
                   if y != y0 for x in v):
                continue
            c = Coloring(div, vertices, y0, y_infinity)
            if coloring_validate(c).ok and c not in out:
                out.append(c)
    return out


def _s_sequences(p: int, s_max: int):
    if p == 1:
        return [(1,)]
    pool = list(range(s_max + 1))
    out = []

    def rec(prefix, start):
        for x in range(start, s_max + 1):
            seq = prefix + (x,)
            out.append(seq)
            rec(seq, x + 1)
    rec((), 0)
    return out


def enumerate_coherent(div: PolyhedralDivisor, e_bound: int, s_max: int,
                       lam_sample, y_infinity=None):
    """All coherent families on the candidate grid given by the bounds."""
    p = div.field.char_exponent
    found = []
    for coloring in candidate_colorings(div, y_infinity):
        for e in lattice_box(div.rank, e_bound):
            for s in _s_sequences(p, s_max):
                for lam in _lambda_tuples(lam_sample, len(s)):
                    theta = CoherentFamily(coloring, tuple(e), s, lam)
                    if coherent_validate(theta).ok:
                        found.append(theta)
    return sorted(found, key=lambda t: (t.e, t.s, t.describe()))


def _lambda_tuples(sample, r):
    if r == 0:
        return [()]
    shorter = _lambda_tuples(sample, r - 1)
    return [t + (x,) for t in shorter for x in sample]
