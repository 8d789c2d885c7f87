"""A verdict must not depend on how the divisor is written.

Polyhedral divisors that differ by a lattice automorphism A of N and by a
principal divisor div(f) (x) w describe the same T-variety (Altmann-Hausen,
Math. Ann. 334, 2006). Under A the vertices, tail rays and colored vertices
map by v -> A v and the root by e -> A^{-T} e; a shift by w in N adds w to
D_{y0} and to its colored vertex and, over P1, subtracts w at infinity,
since div(t - y0) = [y0] - [infinity]. The coherence verdicts must agree
before and after either move.
"""

import random
from fractions import Fraction as F

from ghz.classifier import (CoherentFamily, Coloring, _random_family,
                            _vertex_conditions_only, coherent_validate)
from ghz.curves import A1, P1
from ghz.fields import PrimeField, Rationals
from ghz.geometry import Cone, Polyhedron
from ghz.tvariety import PolyhedralDivisor

FIELDS = (Rationals(), PrimeField(2), PrimeField(3))


def _families(rng, per_config=40):
    """per_config drawn families over each field, curve and rank 1, 2."""
    out = []
    for field in FIELDS:
        for curve in (A1, P1):
            for rank in (1, 2):
                found = 0
                while found < per_config:
                    theta = _random_family(rng, field, curve, rank)
                    if theta is not None:
                        out.append(theta)
                        found += 1
    return out


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1 (n <= 2) and its
    inverse transpose."""
    if n == 1:
        a = rng.choice((1, -1))
        return [[a]], [[a]]
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    rows = [[1 + a * b, a], [b, 1]]  # [[1, a], [0, 1]] @ [[1, 0], [b, 1]]
    if rng.random() < 0.5:
        rows = [rows[1], [-x for x in rows[0]]]
    if rng.random() < 0.5:
        rows = [rows[1], rows[0]]  # determinant -1
    (p, q), (r, s) = rows
    det = p * s - q * r
    return rows, [[s * det, -r * det], [-q * det, p * det]]


def _apply(matrix, v):
    return tuple(sum(F(a) * x for a, x in zip(row, v)) for row in matrix)


def _moved(theta, vertex_map, ray_map=None, e=None):
    """theta with the vertices and colored vertex at each point y moved by
    vertex_map(y, v), the tail generators by ray_map and the root set to e."""
    c = theta.coloring
    div = c.divisor
    gens = div.tail.generators()
    tail = Cone.from_generators([ray_map(r) for r in gens] if ray_map
                                else gens, div.rank)
    support = {y: Polyhedron.from_points(
        [vertex_map(y, v) for v in poly.vertices], tail)
        for y, poly in div.support.items()}
    moved = PolyhedralDivisor(div.field, div.curve, tail, support)
    coloring = Coloring(moved, {y: vertex_map(y, v)
                                for y, v in c.vertices.items()},
                        c.y0, c.y_infinity)
    return CoherentFamily(coloring, theta.e if e is None else e, theta.s,
                          theta.lam)


def _verdicts(theta):
    return (coherent_validate(theta).ok, _vertex_conditions_only(theta).ok)


def _shift(theta, w, at_infinity=True):
    y0 = theta.coloring.y0

    def vertex_map(y, v):
        if y == y0:
            return tuple(a + b for a, b in zip(v, w))
        if y.is_infinity and at_infinity:
            return tuple(a - b for a, b in zip(v, w))
        return v
    return _moved(theta, vertex_map)


def test_coherence_verdicts_are_invariant():
    rng = random.Random(5)
    families = _families(rng)
    coherent = control_changed = 0
    for theta in families:
        rank = theta.coloring.divisor.rank
        before = _verdicts(theta)
        coherent += before[0]
        a, a_inv_t = _unimodular(rng, rank)
        gl = _moved(theta, lambda y, v: _apply(a, v), lambda r: _apply(a, r),
                    tuple(int(x) for x in _apply(a_inv_t, theta.e)))
        assert _verdicts(gl) == before, ("GL", a, theta.describe())
        w = tuple(rng.randint(-2, 2) for _ in range(rank))
        assert _verdicts(_shift(theta, w)) == before, \
            ("shift", w, theta.describe())
        if theta.coloring.divisor.curve == P1 and any(w):
            # not a principal divisor: deg D moves by w
            control_changed += _verdicts(_shift(theta, w, False)) != before
    assert len(families) == 480
    assert 0 < coherent < len(families)
    assert control_changed > 0
