"""Generalized binomial coefficients, exact and reduced into a field."""

from __future__ import annotations

import math


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
