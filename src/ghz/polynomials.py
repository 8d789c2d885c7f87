"""Univariate polynomials and rational functions.

Everything is generic over a coefficient field from :mod:`ghz.fields` (or a
:class:`FractionField` built here), so the same machinery serves k[t],
GF(p)(l) and the cyclic-cover variable of the operator engine, whose step
S = sum lambda_j T^(p^s_j) is a :class:`Poly` in T as well.

A rational function, parsed or computed, is a reduced :class:`RatFunc`;
the parser builds it with RatFunc's own arithmetic.  An H^0 generator
prod q_y^(e_y) stays a ``factor_list`` of (q_y, e_y) pairs, which
``fmt_factors`` prints (the generator search reads the e_y off D(m));
``times_factors`` is the one way to multiply it into a RatFunc, dividing
each q_y out of the opposite side instead of running a gcd.
"""

from __future__ import annotations

import re
from math import comb

from .fields import BaseField, FieldError


class Poly:
    """Sparse univariate polynomial: exponent -> nonzero raw coefficient.

    The variable is contextual (t, l, or an auxiliary name); only printing
    cares about it.  Degree of the zero polynomial is -1.  The coefficient
    dict is canonical and never changes after construction, so the degree is
    stored with it.
    """

    __slots__ = ("field", "coeffs", "degree")

    def __init__(self, field, coeffs: dict):
        self.field = field
        self.coeffs = coeffs = field.canon_terms(coeffs)
        self.degree = max(coeffs) if coeffs else -1

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

    # -- structure

    def is_zero(self) -> bool:
        return not self.coeffs

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
        """Long division in one pass (Knuth, TAOCP vol. 2, 4.6.1): for d from
        deg self down to deg other, pop the remainder's term of degree d and
        subtract its multiple of other's lower terms.  Zero raws left in the
        remainder are dropped by the constructor."""
        k = self.field
        if other.is_zero():
            raise FieldError("polynomial division by zero")
        ddeg = other.degree
        inv = k.inv(other.coeffs[ddeg])
        lower = [(e - ddeg, a) for e, a in other.coeffs.items() if e != ddeg]
        zero = k.zero()
        q, r = {}, dict(self.coeffs)
        for d in range(self.degree, ddeg - 1, -1):
            c = r.pop(d, None)
            if c is None or k.is_zero(c):
                continue
            c = q[d - ddeg] = k.mul(c, inv)
            for e, a in lower:
                r[e + d] = k.sub(r.get(e + d, zero), k.mul(a, c))
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
        k = self.field  # the constructor drops the terms that vanish
        return Poly(k, {e - 1: k.mul(c, k.from_int(e))
                        for e, c in self.coeffs.items() if e > 0})

    def evaluate(self, x):
        """Horner evaluation at a raw field value."""
        k = self.field
        r = k.zero()
        for e in range(self.degree, -1, -1):
            r = k.add(k.mul(r, x), self.coeff(e))
        return r

    def taylor_shift(self, c) -> "Poly":
        """self(t + c) by Horner's Taylor shift (Knuth, TAOCP vol. 2,
        4.6.4): n(n + 1)/2 multiply-adds at degree n, in any
        characteristic."""
        k = self.field
        n = self.degree
        if n < 1 or k.is_zero(c):
            return self
        a = [self.coeff(e) for e in range(n + 1)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] = k.add(a[j], k.mul(c, a[j + 1]))
        return Poly(k, dict(enumerate(a)))

    def _moved(self, coeffs: dict) -> "Poly":
        """self's coefficients at moved exponents: they are canonical and
        nonzero already, so the constructor's ``canon_terms`` is skipped."""
        p = object.__new__(Poly)
        p.field, p.coeffs = self.field, coeffs
        p.degree = max(coeffs, default=-1)
        return p

    def spread(self, d: int) -> "Poly":
        """self(t^d); the inverse of ``regroup``."""
        return self._moved({e * d: c for e, c in self.coeffs.items()})

    def _shifted(self, s: int) -> "Poly":
        """self * x^s for an s that keeps every exponent nonnegative."""
        return self._moved({e + s: c for e, c in self.coeffs.items()})

    def times_x(self, k: int) -> "RatFunc":
        """self * x^k as a reduced RatFunc, for nonzero self: only a power of
        x cancels, so it is self * x^(k - j) over x^-j, j = min(0, k + ord)."""
        j = min(0, k + min(self.coeffs))
        return RatFunc(self._shifted(k - j), Poly.x(self.field, -j),
                       reduce=False)

    def regroup(self, q: int) -> "Poly":
        """Return g with self(x) = g(x^q); requires all exponents divisible by q."""
        if any(e % q for e in self.coeffs):
            raise FieldError("exponents not divisible")
        return self._moved({e // q: c for e, c in self.coeffs.items()})

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

    def __eq__(self, other):
        # coefficient dicts are canonical, so dict equality is value equality
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", tuple(sorted(self.coeffs.items()))))

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
            elif cs in ("1", "-1"):
                mono = var if e == 1 else f"{var}^{e}"
                parts.append(mono if cs == "1" else "-" + mono)
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

    def times_x(self, e: int) -> "RatFunc":
        """self * t^e by shifting exponents.  num/den is reduced, so for
        e >= 0 gcd(num * t^e, den) = t^min(e, ord_t den), and symmetrically
        for e < 0: only powers of t cancel, and no gcd is needed."""
        num, den = self.num, self.den
        if num.is_zero():
            return self
        if e >= 0:
            c = min(e, min(den.coeffs))
            return RatFunc(num._shifted(e - c), den._shifted(-c), reduce=False)
        c = min(-e, min(num.coeffs))
        return RatFunc(num._shifted(-c), den._shifted(-e - c), reduce=False)

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
        """a * b, where a factor 1 returns the other factor itself: a
        RatFunc is never changed after construction, so it can be shared."""
        if self.is_one(a):
            return b
        if self.is_one(b):
            return a
        return a * b

    def inv(self, a):
        return a.inverse()

    def eq(self, a, b) -> bool:
        return a == b

    def canon(self, a):
        """The reduced fraction; a monic denominator of degree 0 is 1."""
        den = a.den.coeffs
        return a if len(den) == 1 and 0 in den else RatFunc(a.num, a.den)

    def canon_terms(self, terms: dict) -> dict:
        canon = self.canon
        return {e: canon(c) for e, c in terms.items() if c.num.coeffs}

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


def factor_list(pairs) -> tuple:
    """An H^0 generator prod q^e as a canonical tuple of (q, e) pairs: monic
    non-constant q, nonzero int e.  Factors are kept as supplied (never
    factored further); pairs with the same q merge by adding exponents, and
    the result is sorted by (degree, printed form)."""
    merged = {}
    for q, e in pairs:
        merged[q] = merged.get(q, 0) + e
    return tuple(sorted(((q, e) for q, e in merged.items() if e),
                        key=lambda qe: (qe[0].degree, qe[0].to_str())))


def fmt_factors(factors) -> str:
    """A factor list as ``piece`` and ``generators`` print it; 1 if empty."""
    parts = []
    for q, e in factors:
        base = q.to_str()
        if len(q.coeffs) > 1:
            base = f"({base})"
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts) or "1"


def times_factors(r: RatFunc, factors, powers: dict) -> RatFunc:
    """r * prod q^e for monic q, without a Euclidean gcd when nothing but q
    can cancel.

    r = num/den is reduced.  For e > 0, q is divided out of den as often as
    it divides, up to e times, and the rest of q^e multiplies num
    (symmetrically for e < 0).  For q = t that is one exponent shift by
    min(e, ord_t den); any other q first tries one division by q^e, and
    only if that leaves a remainder divides by q one power at a time.  A
    point may be trusted without an irreducibility proof, so q can share a
    proper factor with what is left: the failed division's remainder gives
    gcd(q, rest), and a nontrivial one makes the result reduce.

    ``powers`` caches q ** n by (q, n) for polynomials over one field: the
    same factors recur with the same exponents at every weight."""
    num, den = r.num, r.den
    if num.is_zero():
        return r
    reduce = False
    for q, e in factors:
        near, far = (num, den) if e > 0 else (den, num)
        n = abs(e)
        if q.degree == 1 and len(q.coeffs) == 1:  # q = t
            c = min(n, min(far.coeffs))
            if c:
                far, n = far._shifted(-c), n - c
        else:
            if n > 1 and far.degree >= n * q.degree:
                quo, rem = far.divmod(_power(powers, q, n))
                if rem.is_zero():
                    far, n = quo, 0
            while n and far.degree > 0:
                quo, rem = far.divmod(q)
                if not rem.is_zero():
                    reduce = reduce or (rem.degree > 0
                                        and poly_gcd(q, rem).degree > 0)
                    break
                far, n = quo, n - 1
        if n:
            near = near * _power(powers, q, n)
        num, den = (near, far) if e > 0 else (far, near)
    return RatFunc(num, den, reduce=reduce)


def _power(powers: dict, q: Poly, n: int) -> Poly:
    """q ** n through the cache of ``times_factors``."""
    if (q, n) not in powers:
        powers[q, n] = q ** n
    return powers[q, n]


def _times(k, x, y):
    """x * y for nonzero raws, with no multiplication where one is 1."""
    return y if k.is_one(x) else x if k.is_one(y) else k.mul(x, y)


def _truncated_product(a: dict, b: dict, order: int, k) -> dict:
    """The terms below T^order of the product of two {exponent: raw} dicts."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            ij = i + j
            if ij < order:
                v = _times(k, x, y)
                out[ij] = k.add(out[ij], v) if ij in out else v
    return {i: c for i, c in out.items() if not k.is_zero(c)}


def substitute_poly(poly: Poly, base: Poly, order: int) -> Poly:
    """poly(base) mod T^order by Horner's rule, the series oracle's step; the
    coefficients of ``poly`` are raw values of ``base.field``."""
    k = base.field
    res = {}
    for e in range(poly.degree, -1, -1):
        res = _truncated_product(res, base.coeffs, order, k)
        res[0] = k.add(res.get(0, k.zero()), poly.coeff(e))
    return Poly(k, {i: c for i, c in res.items() if i < order})


def hasse_expand(poly: Poly, step: Poly, order: int) -> dict:
    """poly(z + S) = sum_n D^(n)poly(z) S^n as {i: coefficient of T^i in k[z]}
    for i < order.

    S = ``step`` is a polynomial in T over the coefficients of ``poly`` with
    no constant term; D^(n) z^e = C(e, n) z^(e-n) is the n-th Hasse
    derivative, so the formula holds in every characteristic.  C(e, n) is
    an int reduced mod p (exact over Q), and a term whose binomial is 0 is
    skipped: by Lucas's theorem most binomials mod p are 0 or 1.  The field
    multiplies only where neither factor is 0 or 1.
    """
    k = poly.field
    p = k.char_exponent
    out = {}
    power = {0: k.one()} if order > 0 else {}
    for n in range(poly.degree + 1):
        if not power:
            break
        dn = {}
        for e, c in poly.coeffs.items():
            if e >= n:
                b = comb(e, n)
                if p > 1:
                    b %= p
                if b:
                    dn[e - n] = c if b == 1 else _times(k, c, k.from_int(b))
        for i, c in power.items():
            acc = out.setdefault(i, {})
            unit = k.is_one(c)
            for e, a in dn.items():
                v = a if unit else _times(k, a, c)
                acc[e] = k.add(acc[e], v) if e in acc else v
        power = _truncated_product(power, step.coeffs, order, k)
    out = {i: Poly(k, acc) for i, acc in out.items()}
    return {i: c for i, c in out.items() if c.coeffs}


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
        raise FieldError("element is not a function of z^d") from None
    back = rf.field.neg(shift)
    # a shift is an automorphism of k[t]: num, den stay coprime, den monic
    return RatFunc(num.taylor_shift(back), den.taylor_shift(back),
                   reduce=False)


# ---------------------------------------------------------------------------
# parsing


class ParseError(ValueError):
    pass


# a number, a word character (a name if it is a letter), an operator, or
# any other visible character
_TOKEN = re.compile(r"(\d+)|(\w)|([-+*/^()])|\S")


def parse_rational(text: str, field, var: str | None = "t") -> RatFunc:
    """Parse expressions like ``2*t^2*(t-1)^-1`` or ``t^2 + l`` into a
    reduced rational function.

    Sums, products, quotients and integer powers may be any rational
    functions, so the value does not depend on the written form; only
    `parse_poly` asks for a polynomial.  ``l`` denotes the generator of a
    FractionField coefficient field.
    """
    toks = [("end", None, len(text))]  # (kind, value, position), last first
    for tok in reversed(list(_TOKEN.finditer(text))):
        num, name, sym = tok.groups()
        if not (num or sym or name and name.isalpha()):
            raise ParseError(f"unexpected character {tok.group()!r} at "
                             f"position {tok.start()}")
        toks.append(("num", int(num), tok.start()) if num else
                    ("name" if name else sym, tok.group(), tok.start()))

    def expect(kind):
        tok = toks.pop()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r} at position {tok[2]}")
        return tok[1]

    def parse_sum():
        sign = toks.pop()[0] if toks[-1][0] in "+-" else "+"
        acc = parse_product()
        acc = -acc if sign == "-" else acc
        while toks[-1][0] in "+-":
            op = toks.pop()[0]
            term = parse_product()
            acc = acc + term if op == "+" else acc - term
        return acc

    def parse_product():
        acc = parse_power()
        while toks[-1][0] in "*/":
            op, _, pos = toks.pop()
            rhs = parse_power()
            if op == "*":
                acc = acc * rhs
            elif rhs.is_zero():
                raise ParseError(f"division by zero at position {pos}")
            else:
                acc = acc / rhs
        return acc

    def parse_power():
        base = parse_atom()
        if toks[-1][0] != "^":
            return base
        pos = toks.pop()[2]
        sign = 1
        if toks[-1][0] == "-":
            toks.pop()
            sign = -1
        n = sign * expect("num")
        if n <= 0 and base.is_zero():
            raise ParseError(f"zero to a non-positive power at position {pos}")
        return base ** n

    def parse_atom():
        kind, value, pos = toks.pop()
        if kind == "num":
            return RatFunc.from_poly(Poly.const(field, field.from_int(value)))
        if kind == "name":
            if value == var:
                return RatFunc.x(field)
            if getattr(field, "generator_name", None) == value:
                return RatFunc.from_poly(Poly.const(field, field.generator()))
            raise ParseError(f"unknown symbol {value!r} at position {pos}")
        if kind == "(":
            inner = parse_sum()
            expect(")")
            return inner
        if kind == "-":
            return -parse_atom()
        raise ParseError(f"unexpected token at position {pos}")

    result = parse_sum()
    if toks[-1][0] != "end":
        raise ParseError(f"trailing input at position {toks[-1][2]}")
    return result


def parse_poly(text: str, field) -> Poly:
    rf = parse_rational(text, field)
    if not rf.is_poly():
        raise ParseError("expected a polynomial, got a proper rational function")
    return rf.num


def parse_scalar(text: str, field):
    """Parse a field element string such as ``1``, ``-2/3`` or ``l+1``.
    With no variable every atom is a constant, and so is the value."""
    return parse_rational(text, field, var=None).num.constant()
