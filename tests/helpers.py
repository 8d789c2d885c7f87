"""Constructors and oracles that only the tests use.

``principal_divisor``, ``is_effective`` and ``h0_dimension`` make the H^0
oracle: div(g * t^j) + d >= 0 exactly for j below dim H^0(P1, d), for an
integral divisor d given as {point: int}. ``frf_quotient`` and
``frf_is_polynomial`` are the arithmetic of the reference generator search.
"""

from fractions import Fraction

from ghz.curves import P1, ClosedPoint, point_validate
from ghz.engine import GradedElement
from ghz.geometry import Cone, _echelon, dot
from ghz.polynomials import FactoredRatFunc, Poly
from ghz.scenarios import divisor_over_den


def orthant(n):
    """The cone spanned by the n unit vectors."""
    return Cone.from_generators(
        [tuple(int(i == j) for j in range(n)) for i in range(n)], n)


def cone_dim(cone):
    """The dimension of a cone: the rank of its rays and lineality."""
    return len(_echelon(cone.rays + cone.lineality)[1])


def interior_point(cone):
    """A point in the relative interior of a cone: the sum of its
    generators."""
    return tuple(map(sum, zip((0,) * cone.n, *cone.generators())))


def argmin_vertices(poly, m):
    """The vertices of a polyhedron where <m, .> is least, or [] when it is
    unbounded below."""
    best = poly.minimize(m)
    if best is None:
        return []
    return [v for v in poly.vertices if dot(m, v) == best]


def vec(coords):
    """A vector of Fractions."""
    return tuple(Fraction(c) for c in coords)


def rational(v, den):
    """The rational vector v/den that an int vertex over den stands for."""
    return tuple(Fraction(x, den) for x in v)


def rational_divisor(field, curve, tail, points, colored=None):
    """A divisor built from rational data as parse_scenario builds it:
    ``points`` maps each support point to its rational points, ``colored``
    each colored point to its rational vertex, and den is the lcm of every
    denominator in both. Returns the divisor and the colored vertices as
    int tuples over its den."""
    return divisor_over_den(field, curve, tail, points, colored or {})


def int_poly(field, coeffs):
    """sum coeffs[e] t^e, each integer mapped into ``field``."""
    return Poly(field, {e: field.from_int(c) for e, c in enumerate(coeffs)})


def from_fraction(field, q: Fraction):
    """The image of a rational number in ``field``."""
    return field.mul(field.from_int(q.numerator),
                     field.inv(field.from_int(q.denominator)))


def exponent_of(f, poly):
    """The exponent of the monic factor ``poly`` in a FactoredRatFunc."""
    return dict(f.factors).get(poly, 0)


def is_unit(f):
    """A FactoredRatFunc with no factor: the constant 1."""
    return not f.factors


def frf_quotient(a, b):
    """a / b, by exponents."""
    return FactoredRatFunc(a.field, list(a.factors)
                           + [(p, -e) for p, e in b.factors])


def frf_is_polynomial(f):
    """Every exponent is nonnegative."""
    return all(e >= 0 for _, e in f.factors)


def generator_elements(gens):
    """The algebra generators as graded elements."""
    return [GradedElement.term(g.coeff.field, g.weight, g.coeff.expand())
            for g in gens]


def principal_divisor(f, curve, policy="trusted") -> dict:
    """div(f) on A1 or P1 for a FactoredRatFunc; on P1 the point at
    infinity balances the degree to zero."""
    out = {}
    total = 0
    for poly, exp in f.factors:
        y = point_validate(poly, policy)
        out[y] = out.get(y, 0) + exp
        total += exp * poly.degree
    if curve == P1 and total != 0:
        inf = ClosedPoint.infinity()
        out[inf] = out.get(inf, 0) - total
    return out


def is_effective(d: dict) -> bool:
    return all(c >= 0 for c in d.values())


def h0_dimension(mod) -> int:
    """dim H^0 of a ModuleDescription on P1."""
    assert mod.curve == P1
    return max(0, mod.degree_bound + 1)
