"""Closed points of the affine line and projective line, and the global
sections of integral divisors on them.

A finite closed point is a monic irreducible polynomial q(t); its residue
degree is deg q.  Over GF(p) irreducibility is proved; over GF(p)(l) only
partial checks run and the point carries a trust marker.  A divisor here
is integral, a dict {point: int}.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import PrimeField, Rationals
from .polynomials import FractionField, Poly, factor_list, poly_gcd
from .reports import Record

A1 = "A1"
P1 = "P1"


class PointError(ValueError):
    pass


class ClosedPoint:
    """Finite point (monic poly) or the point at infinity on P1."""

    __slots__ = ("poly", "trusted", "_hash", "_str", "_eps")

    def __init__(self, poly, trusted=False):
        self.poly = poly  # None encodes infinity
        self.trusted = trusted
        # computed once: Poly.__hash__ sorts the terms on every call, and
        # sort keys print the point on every sort
        self._hash = hash(("pt", poly))
        self._str = "infinity" if poly is None else poly.to_str("t")
        self._eps = None

    @classmethod
    def infinity(cls):
        return cls(None)

    @classmethod
    def rational(cls, field, value):
        """The point t = value for a raw field element."""
        return cls(Poly(field, {1: field.one(), 0: field.neg(value)}))

    @property
    def is_infinity(self):
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    @property
    def epsilon(self) -> int:
        """p^level for the point polynomial q(t) = q_tilde(t^(p^level)) with
        level maximal, 1 at infinity; computed on first use and kept."""
        if self._eps is None:
            self._eps = 1 if self.poly is None else _insep_split(self.poly)[1]
        return self._eps

    def rational_value(self):
        """The raw field value c with q = t - c (rational finite points)."""
        if self.poly is None or self.poly.degree != 1:
            raise PointError("not a finite rational point")
        return self.poly.field.neg(self.poly.constant())

    def __eq__(self, other):
        # the kept hashes settle most comparisons without Poly.__eq__
        return self is other or (isinstance(other, ClosedPoint)
                                 and self._hash == other._hash
                                 and self.poly == other.poly)

    def __hash__(self):
        return self._hash

    def to_str(self):
        return self._str

    def __repr__(self):
        return f"ClosedPoint({self.to_str()})"


def _gfp_irreducible(q: Poly) -> bool:
    """Rabin's test over GF(p)."""
    p = q.field.p
    n = q.degree
    x = Poly.x(q.field)
    if x.powmod(p ** n, q) != x % q:
        return False
    primes = set()
    m = n
    f = 2
    while f * f <= m:
        while m % f == 0:
            primes.add(f)
            m //= f
        f += 1
    if m > 1:
        primes.add(m)
    for r in primes:
        h = x.powmod(p ** (n // r), q) - (x % q)
        if poly_gcd(h, q).degree > 0:
            return False
    return True


def _rational_root(q: Poly):
    """A rational root of an integer-scaled polynomial over Q, or None."""
    from math import isqrt, lcm

    mult = lcm(*[c.denominator for c in q.coeffs.values()])
    ints = {e: int(c * mult) for e, c in q.coeffs.items()}
    a0 = ints.get(0, 0)
    an = ints[q.degree]
    if a0 == 0:
        return Fraction(0)

    def divisors(m):
        m = abs(m)
        return sorted({x for d in range(1, isqrt(m) + 1) if m % d == 0
                       for x in (d, m // d)})

    for num in divisors(a0):
        for den in divisors(an):
            for sign in (1, -1):
                r = Fraction(sign * num, den)
                if q.evaluate(r) == 0:
                    return r
    return None


def point_validate(q: Poly, trusted: bool = False) -> ClosedPoint:
    """Validate a monic polynomial as a closed point of the affine line.

    By default it proves irreducibility (GF(p) always; Q up to degree 3) or
    raises; ``trusted`` runs partial checks and marks the point as trusted.
    """
    if q.degree < 1:
        raise PointError("a closed point needs degree >= 1")
    if not q.is_monic():
        raise PointError("point polynomial must be monic")
    field = q.field
    if q.degree == 1:
        return ClosedPoint(q)
    if not trusted:
        if isinstance(field, PrimeField):
            if not _gfp_irreducible(q):
                raise PointError(f"{q.to_str()} is reducible over {field!r}")
            return ClosedPoint(q)
        if isinstance(field, Rationals):
            if q.degree > 3:
                raise PointError(
                    "strict irreducibility over Q is undecidable here beyond degree 3")
            root = _rational_root(q)
            if root is not None:
                raise PointError(
                    f"{q.to_str()} has the rational root {root}")
            return ClosedPoint(q)
        raise PointError(
            f"strict irreducibility is undecidable over {field!r}; use "
            "--trust-irreducible")
    # partial checks: separable part squarefree, no small roots
    qt = _insep_split(q)[3]  # of degree >= 1, so qt' != 0
    if poly_gcd(qt, qt.derivative()).degree > 0:
        raise PointError(f"{q.to_str()} has a repeated factor")
    for cand in _small_candidates(field):
        if field.is_zero(q.evaluate(cand)):
            raise PointError(f"{q.to_str()} has a small root")
    return ClosedPoint(q, trusted=True)


def _small_candidates(field):
    if isinstance(field, Rationals):
        return [Fraction(c) for c in range(-3, 4)]
    if isinstance(field, PrimeField):
        return list(range(field.p))
    if isinstance(field, FractionField):
        p = getattr(field.inner, "p", None)
        vals = [field.from_int(c) for c in (range(p) if p else range(-2, 3))]
        if p:
            gen = field.generator()
            vals.extend(field.add(gen, field.from_int(c)) for c in range(p))
        return vals
    return []


def _insep_split(q: Poly):
    """q(t) = q_tilde(t^(p^level)) with level maximal, as (level, p^level,
    deg q_tilde, q_tilde)."""
    p, level = q.field.char_exponent, 0
    while p > 1 and all(e % p == 0 for e in q.coeffs):
        q, level = q.regroup(p), level + 1
    return level, p ** level, q.degree, q


class ModuleDescription(Record):
    """H^0 of a rounded divisor: a free k[t]-module generator on A1, or a
    finite k-basis {generator * t^j : 0 <= j <= degree_bound} on P1.  The
    generator is a ``factor_list`` over ``field``."""

    __slots__ = ("curve", "field", "generator", "degree_bound")

    def __init__(self, curve: str, field, generator: tuple,
                 degree_bound: int | None = None):
        put = object.__setattr__
        put(self, "curve", curve)
        put(self, "field", field)
        put(self, "generator", generator)
        put(self, "degree_bound", degree_bound)  # P1 only; None on A1

    @property
    def is_empty(self) -> bool:
        return self.curve == P1 and self.degree_bound < 0

    def basis(self):
        t = Poly.x(self.field)
        return [factor_list(self.generator + ((t, j),))
                for j in range(self.degree_bound + 1)]


def h0_generators(d: dict, curve: str, field) -> ModuleDescription:
    """Generators of {f : div(f) + d >= 0} for an integral divisor d given
    as {point: int}.

    On A1: the free k[t]-module generator prod q_y^(-d_y).  On P1 a finite
    basis as described on :class:`ModuleDescription`.
    """
    factors = []
    for y, c in d.items():
        if not c:
            continue
        if y.is_infinity:
            if curve == A1:
                raise PointError("infinity is not a point of the affine line")
            continue
        factors.append((y.poly, -c))
    gen = factor_list(factors)
    if curve == A1:
        return ModuleDescription(A1, field, gen)
    return ModuleDescription(P1, field, gen, degree_bound=sum(
        c * y.degree for y, c in d.items()))
