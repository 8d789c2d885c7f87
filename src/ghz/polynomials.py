"""Univariate polynomials, rational functions and truncated series.

Everything is generic over a coefficient field from :mod:`ghz.fields` (or a
:class:`FractionField` built here), so the same machinery serves k[t],
GF(p)(l) and the cyclic-cover variable of the operator engine.
"""

from __future__ import annotations

from fractions import Fraction

from .binomials import binom_in_field
from .fields import BaseField, FieldError


class Poly:
    """Sparse univariate polynomial: exponent -> nonzero raw coefficient.

    The variable is contextual (t, l, or an auxiliary name); only printing
    cares about it.  Degree of the zero polynomial is -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: dict):
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items() if not field.is_zero(c)}

    # -- constructors

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def const(cls, field, c):
        return cls(field, {0: c})

    @classmethod
    def one(cls, field):
        return cls(field, {0: field.one()})

    @classmethod
    def x(cls, field, exp: int = 1):
        return cls(field, {exp: field.one()})

    @classmethod
    def from_int_coeffs(cls, field, coeffs: list):
        return cls(field, {e: field.from_int(c) for e, c in enumerate(coeffs)})

    # -- structure

    @property
    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return self.degree <= 0

    def leading(self):
        if not self.coeffs:
            return self.field.zero()
        return self.coeffs[self.degree]

    def constant(self):
        return self.coeffs.get(0, self.field.zero())

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.field.is_one(self.leading())

    def is_one(self) -> bool:
        return self.degree == 0 and self.field.is_one(self.coeffs[0])

    def coeff(self, e: int):
        return self.coeffs.get(e, self.field.zero())

    # -- arithmetic

    def __add__(self, other):
        k = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = k.add(out.get(e, k.zero()), c)
        return Poly(k, out)

    def __neg__(self):
        k = self.field
        return Poly(k, {e: k.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        k = self.field
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                v = k.mul(c1, c2)
                if e in out:
                    out[e] = k.add(out[e], v)
                else:
                    out[e] = v
        return Poly(k, out)

    def scale(self, c):
        k = self.field
        return Poly(k, {e: k.mul(a, c) for e, a in self.coeffs.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise FieldError("negative power of a polynomial")
        r = Poly.one(self.field)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def divmod(self, other):
        k = self.field
        if other.is_zero():
            raise FieldError("polynomial division by zero")
        q = {}
        r = dict(self.coeffs)
        dlead = other.leading()
        ddeg = other.degree
        inv = k.inv(dlead)

        def rdeg():
            return max((e for e, c in r.items() if not k.is_zero(c)), default=-1)

        d = rdeg()
        while d >= ddeg:
            c = k.mul(r[d], inv)
            q[d - ddeg] = c
            for e, a in other.coeffs.items():
                ee = e + d - ddeg
                r[ee] = k.sub(r.get(ee, k.zero()), k.mul(a, c))
            r = {e: c for e, c in r.items() if not k.is_zero(c)}
            d = rdeg()
        return Poly(k, q), Poly(k, r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise FieldError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def derivative(self):
        k = self.field
        out = {}
        for e, c in self.coeffs.items():
            if e > 0:
                v = k.mul(c, k.from_int(e))
                if not k.is_zero(v):
                    out[e - 1] = v
        return Poly(k, out)

    def evaluate(self, x):
        """Horner evaluation at a raw field value."""
        k = self.field
        r = k.zero()
        for e in range(self.degree, -1, -1):
            r = k.add(k.mul(r, x), self.coeff(e))
        return r

    def compose(self, other: "Poly") -> "Poly":
        """Substitute the variable by another polynomial."""
        k = self.field
        r = Poly.zero(k)
        d = self.degree
        for e in range(d, -1, -1):
            r = r * other + Poly.const(k, self.coeff(e))
        return r

    def regroup(self, q: int) -> "Poly":
        """Return g with self(x) = g(x^q); requires all exponents divisible by q."""
        if any(e % q for e in self.coeffs):
            raise FieldError("exponents not divisible")
        return Poly(self.field, {e // q: c for e, c in self.coeffs.items()})

    def powmod(self, n: int, mod: "Poly") -> "Poly":
        r = Poly.one(self.field)
        b = self % mod
        while n:
            if n & 1:
                r = (r * b) % mod
            b = (b * b) % mod
            n >>= 1
        return r

    # -- comparisons

    def _key(self):
        return tuple(sorted(self.coeffs.items()))

    def __eq__(self, other):
        return isinstance(other, Poly) and self._key() == other._key()

    def __hash__(self):
        return hash(("Poly", self._key()))

    def to_str(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        k = self.field
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            cs = k.to_str(c)
            if any(op in cs[1:] for op in "+-") or "/" in cs:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(var if e == 1 else f"{var}^{e}")
            else:
                parts.append(f"{cs}*{var}" if e == 1 else f"{cs}*{var}^{e}")
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"Poly({self.to_str()})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


class RatFunc:
    """Reduced fraction of polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduce: bool = True):
        if den.is_zero():
            raise FieldError("zero denominator")
        if reduce and not den.is_one():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        if not den.is_monic():
            c = den.field.inv(den.leading())
            num = num.scale(c)
            den = den.scale(c)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p, Poly.one(p.field), reduce=False)

    @classmethod
    def zero(cls, field):
        return cls.from_poly(Poly.zero(field))

    @classmethod
    def one(cls, field):
        return cls.from_poly(Poly.one(field))

    @classmethod
    def x(cls, field, exp: int = 1):
        if exp >= 0:
            return cls.from_poly(Poly.x(field, exp))
        return cls(Poly.one(field), Poly.x(field, -exp), reduce=False)

    @property
    def field(self):
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.is_zero():
            raise FieldError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(self.num ** n, self.den ** n, reduce=False)

    def scale(self, c):
        return RatFunc(self.num.scale(c), self.den, reduce=False)

    def compose_poly(self, sub: Poly) -> "RatFunc":
        """Substitute the variable by a polynomial."""
        return RatFunc(self.num.compose(sub), self.den.compose(sub))

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def to_str(self, var: str = "t") -> str:
        if self.den.is_one():
            return self.num.to_str(var)
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    def __repr__(self):
        return f"RatFunc({self.to_str()})"


class FractionField(BaseField):
    """Field of fractions k(var) over an inner field; raws are RatFunc."""

    def __init__(self, inner: BaseField, var: str = "l"):
        self.inner = inner
        self.var = var
        self.char_exponent = inner.char_exponent
        self.generator_name = var

    def zero(self):
        return RatFunc.zero(self.inner)

    def one(self):
        return RatFunc.one(self.inner)

    def generator(self):
        return RatFunc.x(self.inner)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def is_one(self, a) -> bool:
        return a.den.is_one() and a.num.is_one()

    def from_int(self, n: int):
        return RatFunc.from_poly(Poly.const(self.inner, self.inner.from_int(n)))

    def to_str(self, a) -> str:
        return a.to_str(self.var)

    def __repr__(self):
        return f"{self.inner!r}({self.var})"

    def __eq__(self, other):
        return (isinstance(other, FractionField) and self.inner == other.inner
                and self.var == other.var)

    def __hash__(self):
        return hash(("Frac", self.inner, self.var))


def lambda_field(p: int) -> FractionField:
    """The imperfect field GF(p)(l)."""
    from .fields import PrimeField

    return FractionField(PrimeField(p), "l")


class FactoredRatFunc:
    """unit * product of monic polynomial factors with integer exponents.

    Factors are kept as supplied (never factored further); shared factors
    combine by exponent addition.  unit == 0 encodes the zero function.
    """

    __slots__ = ("field", "unit", "factors")

    def __init__(self, field, unit, factors):
        self.field = field
        merged = {}
        for poly, exp in factors:
            if poly.is_constant():
                if exp != 0:
                    unit = field.mul(unit, field.pow(poly.constant(), exp))
                continue
            if not poly.is_monic():
                c = poly.leading()
                unit = field.mul(unit, field.pow(c, exp))
                poly = poly.monic()
            merged[poly] = merged.get(poly, 0) + exp
        if field.is_zero(unit):
            self.unit = field.zero()
            self.factors = ()
            return
        self.unit = unit
        self.factors = tuple(sorted(
            ((p, e) for p, e in merged.items() if e != 0),
            key=lambda pe: (pe[0].degree, pe[0].to_str())))

    @classmethod
    def one(cls, field):
        return cls(field, field.one(), [])

    @classmethod
    def constant(cls, field, c):
        return cls(field, c, [])

    @classmethod
    def from_poly(cls, p: Poly):
        if p.is_zero():
            return cls(p.field, p.field.zero(), [])
        return cls(p.field, p.leading(), [(p.monic(), 1)])

    def is_zero(self) -> bool:
        return self.field.is_zero(self.unit)

    def is_unit(self) -> bool:
        return not self.is_zero() and not self.factors

    def is_polynomial(self) -> bool:
        return self.is_zero() or all(e >= 0 for _, e in self.factors)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FactoredRatFunc(self.field, self.field.zero(), [])
        return FactoredRatFunc(self.field,
                               self.field.mul(self.unit, other.unit),
                               list(self.factors) + list(other.factors))

    def inverse(self):
        if self.is_zero():
            raise FieldError("division by zero")
        return FactoredRatFunc(self.field, self.field.inv(self.unit),
                               [(p, -e) for p, e in self.factors])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        if self.is_zero():
            if n <= 0:
                raise FieldError("zero to a non-positive power")
            return self
        return FactoredRatFunc(self.field, self.field.pow(self.unit, n),
                               [(p, e * n) for p, e in self.factors])

    def expand(self) -> RatFunc:
        num = Poly.const(self.field, self.unit)
        den = Poly.one(self.field)
        for p, e in self.factors:
            if e > 0:
                num = num * p ** e
            else:
                den = den * p ** (-e)
        return RatFunc(num, den)

    def exponent_of(self, poly: Poly) -> int:
        for p, e in self.factors:
            if p == poly:
                return e
        return 0

    def _key(self):
        return (self.unit, self.factors)

    def __eq__(self, other):
        return (isinstance(other, FactoredRatFunc) and self.field == other.field
                and self._key() == other._key())

    def __hash__(self):
        return hash(("FRF", self.unit, self.factors))

    def to_str(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        us = self.field.to_str(self.unit)
        if us != "1" or not self.factors:
            parts.append(us if not (set("+-/") & set(us[1:])) else f"({us})")
        for p, e in self.factors:
            base = p.to_str(var)
            if p.degree > 0 and (len(p.coeffs) > 1 or not p.is_monic()):
                base = f"({base})"
            parts.append(base if e == 1 else f"{base}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return f"FactoredRatFunc({self.to_str()})"


class TruncatedSeries:
    """Order-truncated power series in T with coefficients in a given ring.

    ``ring`` follows the BaseField raw-value protocol (FractionField works;
    so does any field).  Indices >= order are never stored.
    """

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order: int, coeffs: dict):
        if order <= 0:
            raise FieldError("series order must be positive")
        self.ring = ring
        self.order = order
        self.coeffs = {i: c for i, c in coeffs.items()
                       if 0 <= i < order and not ring.is_zero(c)}

    @classmethod
    def const(cls, ring, order, c):
        return cls(ring, order, {0: c})

    def coeff(self, i: int):
        return self.coeffs.get(i, self.ring.zero())

    def __add__(self, other):
        r = self.ring
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = r.add(out.get(i, r.zero()), c)
        return TruncatedSeries(r, self.order, out)

    def __neg__(self):
        r = self.ring
        return TruncatedSeries(r, self.order,
                               {i: r.neg(c) for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        r = self.ring
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                ij = i + j
                if ij >= self.order:
                    continue
                v = r.mul(a, b)
                out[ij] = r.add(out[ij], v) if ij in out else v
        return TruncatedSeries(r, self.order, out)

    def __pow__(self, n: int):
        res = TruncatedSeries.const(self.ring, self.order, self.ring.one())
        b = self
        while n:
            if n & 1:
                res = res * b
            b = b * b
            n >>= 1
        return res

    def inverse(self):
        """Multiplicative inverse; requires invertible constant term."""
        r = self.ring
        c0 = self.coeff(0)
        if r.is_zero(c0):
            raise FieldError("series with zero constant term is not invertible")
        inv0 = r.inv(c0)
        out = {0: inv0}
        for i in range(1, self.order):
            acc = r.zero()
            for j, a in self.coeffs.items():
                if 1 <= j <= i and (i - j) in out:
                    acc = r.add(acc, r.mul(a, out[i - j]))
            if not r.is_zero(acc):
                out[i] = r.neg(r.mul(inv0, acc))
        return TruncatedSeries(r, self.order, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and self.order == other.order
                and self.coeffs.keys() == other.coeffs.keys()
                and all(self.ring.eq(self.coeffs[i], other.coeffs[i])
                        for i in self.coeffs))


def substitute_poly(poly: Poly, base: TruncatedSeries) -> TruncatedSeries:
    """Horner evaluation of a polynomial at a series.

    The polynomial coefficients must be raw values of ``base.ring``.
    """
    ring = base.ring
    res = TruncatedSeries.const(ring, base.order, ring.zero())
    d = poly.degree
    if d < 0:
        return res
    for e in range(d, -1, -1):
        res = res * base
        c = poly.coeff(e)
        if not ring.is_zero(c):
            res = res + TruncatedSeries.const(ring, base.order, c)
    return res


def hasse_expand(poly: Poly, step: TruncatedSeries) -> dict:
    """poly(z + S) = sum_n D^(n)poly(z) S^n as {i: coefficient of T^i in k[z]}.

    S = ``step`` is a series over the coefficients of ``poly`` with no
    constant term; D^(n) z^e = C(e, n) z^(e-n) is the n-th Hasse derivative,
    so the formula holds in every characteristic.
    """
    k = poly.field
    out = {}
    power = TruncatedSeries.const(k, step.order, k.one())
    for n in range(poly.degree + 1):
        if power.is_zero():
            break
        dn = Poly(k, {e - n: k.mul(c, binom_in_field(e, n, k))
                      for e, c in poly.coeffs.items() if e >= n})
        for i, c in power.coeffs.items():
            out[i] = out[i] + dn.scale(c) if i in out else dn.scale(c)
        power = power * step
    return {i: c for i, c in out.items() if not c.is_zero()}


def descend_power(rf: RatFunc, d: int, shift) -> RatFunc:
    """Rewrite g(z) in k(z) as G(u) with u = z^d, then substitute u -> t - shift.

    ``rf`` must be reduced; ``shift`` is a raw value of the coefficient field
    (the base point y0).  A reduced A/B in k(u) gives coprime A(z^d), B(z^d)
    (substitute u = z^d into a Bezout identity), so g is a function of z^d
    exactly when its numerator and denominator regroup by d, in any
    characteristic.  Raises FieldError otherwise: the engine's descent check.
    """
    try:
        num, den = rf.num.regroup(d), rf.den.regroup(d)
    except FieldError:
        raise FieldError("descent failure: element is not a function of z^d"
                         ) from None
    k = rf.field
    if not k.is_zero(shift):
        sub = Poly(k, {1: k.one(), 0: k.neg(shift)})
        num, den = num.compose(sub), den.compose(sub)
    # a monic linear substitution keeps num, den coprime and den monic
    return RatFunc(num, den, reduce=False)


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.items = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.items.append(("num", int(text[i:j]), i))
                i = j
            elif ch.isalpha():
                self.items.append(("name", ch, i))
                i += 1
            elif ch in "+-*/^()":
                self.items.append((ch, ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r} at position {i}")
        self.items.append(("end", None, len(text)))

    def peek(self):
        return self.items[self.pos]

    def next(self):
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r} at position {tok[2]}")
        return tok


def parse_factored(text: str, field, var: str = "t") -> FactoredRatFunc:
    """Parse expressions like ``2*t^2*(t-1)^-1`` or ``t^2 + l``.

    Products and integer powers keep their factored structure; sums are
    expanded to a single polynomial factor.  ``l`` denotes the generator of
    a FractionField coefficient field.
    """
    toks = _Tokens(text)
    result = _parse_sum(toks, field, var)
    if toks.peek()[0] != "end":
        raise ParseError(f"trailing input at position {toks.peek()[2]}")
    return result


def _as_poly(frf: FactoredRatFunc, where: int) -> Poly:
    if not frf.is_polynomial():
        raise ParseError(f"sum of non-polynomial terms near position {where}")
    rf = frf.expand()
    return rf.num


def _parse_sum(toks, field, var) -> FactoredRatFunc:
    pos = toks.peek()[2]
    terms = []
    sign = 1
    if toks.peek()[0] in "+-":
        if toks.next()[0] == "-":
            sign = -1
    terms.append((sign, _parse_product(toks, field, var)))
    while toks.peek()[0] in "+-":
        op = toks.next()[0]
        terms.append((1 if op == "+" else -1, _parse_product(toks, field, var)))
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    acc = Poly.zero(field)
    for sgn, frf in terms:
        p = _as_poly(frf, pos)
        acc = acc + (p if sgn == 1 else -p)
    return FactoredRatFunc.from_poly(acc)


def _parse_product(toks, field, var) -> FactoredRatFunc:
    acc = _parse_power(toks, field, var)
    while toks.peek()[0] in "*/":
        op = toks.next()[0]
        rhs = _parse_power(toks, field, var)
        acc = acc * rhs if op == "*" else acc / rhs
    return acc


def _parse_power(toks, field, var) -> FactoredRatFunc:
    base = _parse_atom(toks, field, var)
    if toks.peek()[0] == "^":
        toks.next()
        sign = 1
        if toks.peek()[0] == "-":
            toks.next()
            sign = -1
        tok = toks.expect("num")
        return base ** (sign * tok[1])
    return base


def _parse_atom(toks, field, var) -> FactoredRatFunc:
    kind, value, pos = toks.next()
    if kind == "num":
        return FactoredRatFunc.constant(field, field.from_int(value))
    if kind == "name":
        if value == var:
            return FactoredRatFunc(field, field.one(),
                                   [(Poly.x(field), 1)])
        if getattr(field, "generator_name", None) == value:
            return FactoredRatFunc.constant(field, field.generator())
        raise ParseError(f"unknown symbol {value!r} at position {pos}")
    if kind == "(":
        inner = _parse_sum(toks, field, var)
        toks.expect(")")
        return inner
    if kind == "-":
        return FactoredRatFunc.constant(field, field.neg(field.one())) \
            * _parse_atom(toks, field, var)
    raise ParseError(f"unexpected token at position {pos}")


def parse_poly(text: str, field, var: str = "t") -> Poly:
    frf = parse_factored(text, field, var)
    if not frf.is_polynomial():
        raise ParseError("expected a polynomial, got a proper rational function")
    return frf.expand().num


def parse_scalar(text: str, field):
    """Parse a field element string such as ``1``, ``-2/3`` or ``l+1``."""
    frf = parse_factored(text, field, var="\x00")
    rf = frf.expand()
    if rf.num.degree > 0 or rf.den.degree > 0:
        raise ParseError("expected a scalar")
    if rf.den.degree == 0 and not rf.den.is_one():
        return field.div(rf.num.constant(), rf.den.constant())
    return rf.num.constant()
