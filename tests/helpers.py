"""Constructors and oracles that only the tests use.

``principal_divisor``, ``is_effective`` and ``h0_dimension`` make the H^0
oracle: div(g * t^j) + d >= 0 exactly for j below dim H^0(P1, d), for an
integral divisor d given as {point: int}. ``exponents``,
``factor_quotient`` and ``factor_is_polynomial`` are the arithmetic of the
reference generator search, on H^0 generators given as (q, e) pairs.
``times_by_expansion`` multiplies such pairs into a rational function by
expanding them. ``reference_verify_axioms`` checks the operator axioms as
they are stated, on terms (m, f) and their products taken by
``graded_product``, and ``toric_axioms_by_brute_force`` checks those of a
toric root operator, applied by ``toric_apply`` with the binomials of
``binom_in_field``.
``in_lattice`` is the lattice membership of the kernel's reference scan.
"""

import math
from fractions import Fraction

from ghz.curves import P1, ClosedPoint, point_validate
from ghz.engine import EngineError, fmt_term
from ghz.geometry import Cone, _echelon, dot, lattice_box
from ghz.polynomials import Poly, RatFunc
from ghz.reports import Report
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


def in_lattice(v, basis):
    """Is the integer vector in the subgroup with the triangular basis?"""
    v = [int(x) for x in v]
    for b in basis:
        piv = next(i for i, x in enumerate(b) if x)
        q, r = divmod(v[piv], b[piv])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, b)]
    return not any(v)


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


def exponents(pairs):
    """(q, e) pairs as {q: e}: the exponents of a repeated q add up, and
    zero exponents drop."""
    out = {}
    for q, e in pairs:
        out[q] = out.get(q, 0) + e
    return {q: e for q, e in out.items() if e}


def exponent_of(f, poly):
    """The exponent of the monic factor ``poly`` in a factor list."""
    return exponents(f).get(poly, 0)


def factor_quotient(a, b):
    """a / b for two lists of (q, e) pairs, as {q: e}."""
    return exponents([*a, *((q, -e) for q, e in b)])


def factor_is_polynomial(f):
    """Every exponent of the (q, e) pairs is nonnegative."""
    return all(e >= 0 for _, e in f)


def times_by_expansion(r, pairs):
    """r * prod q^e: each side multiplied by its Poly powers, then reduced
    by RatFunc's gcd."""
    num, den = r.num, r.den
    for q, e in pairs:
        if e > 0:
            num = num * q ** e
        else:
            den = den * q ** -e
    return RatFunc(num, den)


def expanded(field, pairs):
    """prod q^e as a RatFunc over ``field``, by expansion."""
    return times_by_expansion(RatFunc.one(field), pairs)


def generator_elements(field, gens):
    """The algebra generators as terms (m, f)."""
    return [(g.weight, expanded(field, g.coeff)) for g in gens]


def principal_divisor(f, curve, trusted=True) -> dict:
    """div(f) on A1 or P1 for (q, e) pairs; on P1 the point at infinity
    balances the degree to zero."""
    out = {}
    total = 0
    for poly, exp in exponents(f).items():
        y = point_validate(poly, trusted)
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


def graded_product(x, y):
    """x * y for two terms (m, f): the weights add and the coefficients
    multiply."""
    (m1, f1), (m2, f2) = x, y
    return tuple(a + b for a, b in zip(m1, m2)), f1 * f2


def _image(orders, i):
    """Order i of a row as {weight: coefficient}, {} where it is zero."""
    w, c = orders.get(i, (None, None))
    return {} if c is None or c.is_zero() else {tuple(w): c}


def vanishing_bound(op, x):
    """The nilpotency bound deg H * p^{s_last} of a term x, H its lift (a
    polynomial: x's application descended)."""
    m, f = x
    return op._lift(f, m).degree * op.nilpotency_exponent()


def _fmt(x):
    """A term (m, f) as engine reports print it."""
    m, f = x
    return fmt_term(f, m)


def _apply(op, x, max_order):
    """The orders of a term x up to ``max_order`` and the witness of its
    failure, None when it has none; an application that raises fails with
    the raised witness."""
    m, f = x
    try:
        orders, failure = op.apply_term(f, m, max_order)
    except EngineError as exc:
        return {}, str(exc)
    return orders, failure and failure[1]


def reference_verify_axioms(op, test_set, max_order):
    """The operator axioms on the terms (m, f) of ``test_set`` by the letter
    of each rule, the oracle of the proof in ``engine.verify_axioms``: the
    identity, homogeneity, the product rule on every pair (rx[i1] *
    ry[i - i1] summed over every i1 <= i, zero orders included),
    iterativity (rx[b] applied afresh for each order a, truncated at a) and
    vanishing beyond ``vanishing_bound``.  Each term is applied truncated
    at ``max_order``, and an application that fails by then is a failure
    with its witness, as in ``verify_axioms``."""
    rep = Report("operator axioms")
    k = op.field
    results = []
    for x in test_set:
        rx, failure = _apply(op, x, max_order)
        if failure:
            rep.fail(f"application failed on {_fmt(x)}: {failure}")
            continue
        results.append((x, rx))
        m, f = x
        if _image(rx, 0) != ({} if f.is_zero() else {m: f}):
            rep.fail(f"order 0 is not the identity on {_fmt(x)}")
        for i, (w, _) in rx.items():
            if w != tuple(a + i * b for a, b in zip(m, op.e)):
                rep.fail(f"order {i} weight {w} is not the input weight "
                         f"shifted by {i}*e")
    for ix, (x, rx) in enumerate(results):
        for y, ry in results[ix:]:
            rxy, failure = _apply(op, graded_product(x, y), max_order)
            if failure:
                rep.fail(f"application failed on a product: {failure}")
                continue
            for i in range(max_order + 1):
                acc = {}
                for i1 in range(i + 1):
                    for w1, f1 in _image(rx, i1).items():
                        for w2, f2 in _image(ry, i - i1).items():
                            w, f = graded_product((w1, f1), (w2, f2))
                            acc[w] = acc[w] + f if w in acc else f
                if {w: f for w, f in acc.items() if not f.is_zero()} \
                        != _image(rxy, i):
                    rep.fail(f"product rule fails at order {i} on "
                             f"({_fmt(x)})*({_fmt(y)})")
                    break
    pairs = [(a, b) for a in range(1, max_order + 1)
             for b in range(1, max_order + 1 - a)]
    for x, rx in results:
        for a, b in pairs:
            lhs, failure = {}, None
            for inner in _image(rx, b).items():
                orders, failure = _apply(op, inner, a)
                lhs = _image(orders, a)
            if failure:
                rep.fail(f"iterate failed on {_fmt(x)}: {failure}")
                continue
            c = binom_in_field(a + b, a, k)
            rhs = {w: f.scale(c) for w, f in _image(rx, a + b).items()
                   if not k.is_zero(c)}
            if lhs != rhs:
                rep.fail(f"iteration rule fails at ({a},{b}) on {_fmt(x)}")
                break
    for x, rx in results:
        if rx and max(rx) > vanishing_bound(op, x):
            rep.fail(f"nonzero image beyond the vanishing bound on "
                     f"{_fmt(x)}")
    return rep


def binom_general(n: int, j: int) -> int:
    """n(n-1)...(n-j+1)/j! as an exact integer; n may be negative."""
    if j < 0:
        raise ValueError("lower index must be nonnegative")
    if n >= 0:
        return math.comb(n, j)
    # (-1)^j * C(j - n - 1, j)
    return (-1) ** j * math.comb(j - n - 1, j)


def binom_in_field(n: int, j: int, field):
    """binom_general(n, j) reduced into the given field."""
    return field.from_int(binom_general(n, j))


def toric_apply(top, m, i: int):
    """(coefficient, weight) of the order-i image of chi^m under a toric
    root operator: C(<m, mu>, i) at weight m + i*e."""
    coeff = binom_in_field(dot(m, top.mu), i, top.field)
    w = tuple(a + i * b for a, b in zip(m, top.e))
    return coeff, w


def toric_axioms_by_brute_force(top, sigma0, box, max_order):
    """The operator laws of a toric root operator, checked term by term: the
    identity on every weight of the box in the dual cone, the product and
    iteration rules on the first 12 of them."""
    rep = Report("toric axioms")
    field = top.field
    dual = sigma0.dual()
    weights = [m for m in lattice_box(sigma0.n, box) if dual.contains(m)]
    for m in weights:
        c0, w0 = toric_apply(top, m, 0)
        if not field.eq(c0, field.one()) or w0 != tuple(m):
            rep.fail(f"order 0 is not the identity at {m}")
    for m1 in weights[:12]:
        for m2 in weights[:12]:
            msum = tuple(a + b for a, b in zip(m1, m2))
            if not dual.contains(msum):
                continue
            for i in range(max_order + 1):
                acc = field.zero()
                for i1 in range(i + 1):
                    c1, _ = toric_apply(top, m1, i1)
                    c2, _ = toric_apply(top, m2, i - i1)
                    acc = field.add(acc, field.mul(c1, c2))
                ci, _ = toric_apply(top, msum, i)
                if not field.eq(acc, ci):
                    rep.fail(f"product rule fails at {m1}+{m2}, order {i}")
                    break
    for m in weights[:12]:
        for a in range(1, max_order):
            for b in range(1, max_order - a):
                cb, wb = toric_apply(top, m, b)
                ca, _ = toric_apply(top, wb, a)
                lhs = field.mul(ca, cb)
                cab, _ = toric_apply(top, m, a + b)
                rhs = field.mul(binom_in_field(a + b, a, field), cab)
                if not field.eq(lhs, rhs):
                    rep.fail(f"iteration rule fails at {m}, ({a},{b})")
    return rep
