"""Exact base fields: the rationals and prime fields GF(p).

Field objects provide arithmetic on raw element values (Fraction for Q,
small ints for GF(p)).  Rational-function fields are layered on top of
these in :mod:`ghz.polynomials`, since their elements are fractions of
polynomials.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ArithmeticError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class BaseField:
    """Shared interface; subclasses implement the primitive operations.

    ``char_exponent`` is p in characteristic p and 1 in characteristic 0.
    """

    char_exponent = 1
    generator_name = None  # set by fields with a distinguished transcendental

    # -- primitive ops supplied by subclasses: zero, one, add, neg, mul,
    #    inv, eq, from_int, to_str, and canon, the one raw value of each
    #    element; canon_terms keeps the nonzero values of a dict, canonical

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero())

    def is_one(self, a) -> bool:
        return self.eq(a, self.one())


class Rationals(BaseField):
    """The field Q with Fraction raw values."""

    char_exponent = 1

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero in Q")
        return 1 / a

    def eq(self, a, b) -> bool:
        return a == b

    def canon(self, a):
        return a

    def canon_terms(self, terms: dict) -> dict:
        return {e: c for e, c in terms.items() if c}

    def from_int(self, n: int):
        return Fraction(n)

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(BaseField):
    """GF(p) with int raw values in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char_exponent = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError(f"division by zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0

    def canon(self, a):
        return a % self.p

    def canon_terms(self, terms: dict) -> dict:
        return {e: r for e, c in terms.items() if (r := c % self.p)}

    def from_int(self, n: int):
        return n % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = Rationals()
