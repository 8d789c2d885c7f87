"""A verdict must not depend on how the divisor is written.

Polyhedral divisors that differ by a lattice automorphism A of N and by a
principal divisor div(f) (x) w describe the same T-variety (Altmann-Hausen,
Math. Ann. 334, 2006). Under A the vertices, tail rays and colored vertices
map by v -> A v and the root by e -> A^{-T} e; a shift by w in N adds w to
D_{y0} and to its colored vertex and, over P1, subtracts w at infinity,
since div(t - y0) = [y0] - [infinity]. The coherence verdicts must agree
before and after either move.

Nor may an output depend on how the same divisor is stored or written: the
int vertices over den and k times them over k*den give the same reports,
and rewriting a scenario file (reordered lists, a redundant point, other
names for the same numbers and points) prints the same stdout.
"""

import json
import random

import pytest

from ghz.classifier import (CoherentFamily, Coloring, _random_family,
                            _vertex_conditions_only, coherent_validate,
                            floor_condition_check)
from ghz.curves import A1, P1
from ghz.fields import PrimeField, Rationals
from ghz.geometry import Cone, Polyhedron
from ghz.scenarios import BUILTIN_EXAMPLES
from ghz.tvariety import PolyhedralDivisor

from test_cli_goldens import run_case

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
    return tuple(sum(a * x for a, x in zip(row, v)) for row in matrix)


def _moved(theta, vertex_map, ray_map=None, e=None, den=None):
    """theta with the int vertices and colored vertex at each point y moved
    by vertex_map(y, v), the tail generators by ray_map, the root set to e
    and the denominator to den."""
    c = theta.coloring
    div = c.divisor
    gens = div.tail.generators()
    tail = Cone.from_generators([ray_map(r) for r in gens] if ray_map
                                else gens, div.rank)
    support = {y: Polyhedron.from_points(
        [vertex_map(y, v) for v in poly.vertices], tail)
        for y, poly in div.support.items()}
    moved = PolyhedralDivisor(div.field, div.curve, tail, support,
                              den or div.den)
    coloring = Coloring(moved, {y: vertex_map(y, v)
                                for y, v in c.vertices.items()},
                        c.y0, c.y_infinity)
    return CoherentFamily(coloring, theta.e if e is None else e, theta.s,
                          theta.lam)


def _verdicts(theta):
    return (coherent_validate(theta).ok, _vertex_conditions_only(theta).ok)


def _shift(theta, w, at_infinity=True):
    y0 = theta.coloring.y0
    w = tuple(theta.coloring.divisor.den * x for x in w)

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


def _reports(theta):
    return [rep.to_dict() for rep in (coherent_validate(theta),
                                      _vertex_conditions_only(theta),
                                      floor_condition_check(theta, 12))]


def test_reports_do_not_depend_on_den():
    rng = random.Random(5)
    families = _families(rng)
    compared = 0
    for theta in families:
        den = theta.coloring.divisor.den
        want = _reports(theta)
        for k in (2, 3, 6):
            scaled = _moved(theta, lambda y, v: tuple(k * x for x in v),
                            den=k * den)
            assert _reports(scaled) == want, (k, theta.describe())
            compared += 1
    assert compared == 3 * 480


def _rewrites():
    """w25-prime written in other ways, each naming the same divisor,
    coloring, family and elements over F2: a point may be written as a
    fraction that cancels to its polynomial."""
    base = BUILTIN_EXAMPLES["w25-prime"]

    def edited(change):
        data = json.loads(json.dumps(base))
        change(data)
        return data

    def reorder(data):
        data["support"] = [dict(e, vertices=e["vertices"][::-1])
                           for e in data["support"][::-1]]
        colored = data["coloring"]["vertices"]
        data["coloring"]["vertices"] = dict(reversed(colored.items()))

    def non_vertex(data):
        data["support"][1]["vertices"].append(["1/7"])

    def numbers(data):
        text = json.dumps(data).replace('"1/5"', '"2/10"')
        data.update(json.loads(text.replace('"0"', '"0/3"')))

    def point(name, second="t+1"):
        def rename(data):
            first = data["support"][0]
            first["point"] = data["coloring"]["y0"] = name
            data["support"][1]["point"] = second
            colored = data["coloring"]["vertices"]
            data["coloring"]["vertices"] = {name: colored["t"],
                                            second: colored["t+1"]}
            data["elements"][0]["coeff"] = f"({name})*({second})"
        return rename

    return {"reordered": edited(reorder),
            "non-vertex point": edited(non_vertex),
            "2/10 and 0/3": edited(numbers),
            "t + 0": edited(point("t + 0")),
            "t^1": edited(point("t^1")),
            "t+3": edited(point("t", "t+3")),
            "(t^2+t)/(t+1)": edited(point("(t^2+t)/(t+1)")),
            "(t^2+1)/(t+1)": edited(point("t", "(t^2+1)/(t+1)"))}


@pytest.mark.parametrize("command", ["validate", "coherent", "verify",
                                     "classify", "roots", "colorings"])
def test_rewritten_scenarios_print_the_same(command, tmp_path):
    def stdout(data, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        run = run_case([command, "--scenario", str(path)])
        return run["stdout"], run["stderr"], run["code"]

    want = stdout(BUILTIN_EXAMPLES["w25-prime"], "base")
    assert want[0] and not want[1]
    for name, data in _rewrites().items():
        assert stdout(data, "rewrite") == want, name
