import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations, product
from math import lcm
from pathlib import Path

import pytest

import ghz.geometry as geometry
from ghz.geometry import (Cone, GeometryError, Polyhedron, _cone, _cone_of,
                          _normal_cone, dot, fmt_vec, lattice_basis,
                          lattice_box, minkowski_weighted_sum, primitive,
                          rays_from_inequalities, vadd, vsub)

from helpers import (argmin_vertices, cone_dim, in_lattice, orthant,
                     rational, vec)


def vscale(c, a):
    c = F(c)
    return tuple(c * x for x in a)


def common_den(vectors):
    """The lcm of the denominators of rational vectors."""
    return lcm(*(F(x).denominator for v in vectors for x in v))


def scaled(v, den):
    """The rational vector v times den, as ints."""
    return tuple(int(F(x) * den) for x in v)


def integer_row(r):
    """The integer multiple of a rational row over its own denominators."""
    return scaled(r, common_den([r]))


# -- oracle: the Fraction reduced-echelon kernel -----------------------------

def rref(rows):
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    rows = [list(vec(r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    cur = 0
    for col in range(ncols):
        piv = next((i for i in range(cur, len(rows)) if rows[i][col] != 0),
                   None)
        if piv is None:
            continue
        rows[cur], rows[piv] = rows[piv], rows[cur]
        inv = 1 / rows[cur][col]
        rows[cur] = [x * inv for x in rows[cur]]
        for i in range(len(rows)):
            if i != cur and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[cur])]
        pivots.append(col)
        cur += 1
        if cur == len(rows):
            break
    return [tuple(r) for r in rows[:cur]], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows, n):
    """Basis of {x : row . x = 0 for all rows} in Q^n."""
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [F(0)] * n
        v[fc] = F(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(tuple(v))
    return basis


def _canonical_basis(rows):
    """Canonical primitive basis of a rational subspace."""
    red, _ = rref(rows)
    return tuple(sorted(primitive(integer_row(r)) for r in red if any(r)))


def rays_oracle(ineqs, n):
    """Extreme rays and lineality by Fraction RREF: one-dimensional
    nullspaces of (k-1)-subsets of the constraints in row-space
    coordinates, k the rank of the constraint matrix."""
    ineqs = [vec(a) for a in ineqs if any(a)]
    lin = nullspace(ineqs, n)
    if not ineqs:
        return _canonical_basis(lin) if lin else (), ()
    row_basis, _ = rref(ineqs)
    k = len(row_basis)
    proj = [tuple(dot(a, b) for b in row_basis) for a in ineqs]
    rays = set()
    if k == 1:
        candidates = [(F(1),)]
    else:
        candidates = []
        for subset in combinations(range(len(proj)), k - 1):
            ns = nullspace([proj[i] for i in subset], k)
            if len(ns) == 1:
                candidates.append(ns[0])
    for c in candidates:
        for sign in (1, -1):
            cc = vscale(sign, c)
            if all(dot(a, cc) >= 0 for a in proj):
                ray = tuple(sum(cc[j] * row_basis[j][i] for j in range(k))
                            for i in range(n))
                if any(ray):
                    rays.add(primitive(integer_row(ray)))
                break
    lin_basis = _canonical_basis(lin) if lin else ()
    return lin_basis, tuple(sorted(rays))


# -- oracle: the Fraction polyhedra that the integer ones replace -----------

def normal_cone_oracle(v, points, tail: Cone):
    """(lineality, rays, dim) of {m : <m, w - v> >= 0, <m, r> >= 0}."""
    ineqs = [vsub(w, v) for w in points if w != v]
    lin, rays = rays_oracle(ineqs + list(tail.rays), tail.n)
    gens = list(lin) + list(rays)
    return lin, rays, rank(gens) if gens else 0


def from_points_oracle(points, tail: Cone):
    """The sorted vertices of conv(points) + tail, on Fractions."""
    pts = []
    for p in map(vec, points):
        if p not in pts:
            pts.append(p)
    if len(pts) == 1:
        return pts
    return sorted(p for p in pts
                  if normal_cone_oracle(p, pts, tail)[2] == tail.n)


def normal_fan_oracle(vertices, tail: Cone):
    out = []
    for v in vertices:
        lin, rays, _ = normal_cone_oracle(v, vertices, tail)
        out.append((v, Cone(tail.n, rays, lin)))
    return out


def minkowski_oracle(terms, tail: Cone):
    """The vertices of the weighted Minkowski sum of (weight, points)."""
    sums = [vec((0,) * tail.n)]
    for weight, points in terms:
        sums = [vadd(s, vscale(weight, w)) for s in sums for w in points]
    return from_points_oracle(sums, tail)


def test_primitive():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((0, -5)) == (0, -1)
    with pytest.raises(GeometryError):
        primitive((0, 0))


def test_fmt_vec_prints_the_rational_vector():
    for den in (1, 2, 6, 35):
        v = (0, den, -den, 3, -4 * den + 1)
        assert fmt_vec(v, den) == \
            "(" + ", ".join(str(F(x, den)) for x in v) + ")"
    assert fmt_vec((3,), 6) == "(1/2)"


def test_rank_nullspace():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert rank(rows) == 2
    ns = nullspace(rows, 3)
    assert len(ns) == 1
    v = ns[0]
    assert v[0] * 1 + v[1] * 2 + v[2] * 3 == 0
    # the integer kernel sees the same line: no rays, one lineality vector
    rows = [tuple(map(int, r)) for r in rows]
    lin, rays = rays_from_inequalities(rows + [vsub((0,) * 3, r)
                                               for r in rows], 3)
    assert lin == _canonical_basis(ns) and rays == ()


def _random_system(rng, n):
    """Rational rows of rank at most n, with zero rows, duplicates, rows
    that differ by a positive or negative scale, and rows taken from a
    random subspace so that the cone has lineality."""
    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    span = [tuple(entry() for _ in range(n))
            for _ in range(rng.randint(1, n))]
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.1:
            rows.append(tuple(F(0) for _ in range(n)))
        elif rows and kind < 0.3:
            scale = rng.choice([1, 1, 2, F(1, 3), -1, -2])
            rows.append(vscale(scale, rng.choice(rows)))
        elif kind < 0.7:
            coeffs = [rng.randint(-2, 2) for _ in span]
            row = tuple(sum(c * b[i] for c, b in zip(coeffs, span))
                        for i in range(n))
            rows.append(row)
        else:
            rows.append(tuple(entry() for _ in range(n)))
    return rows


def test_rays_from_inequalities_matches_fraction_oracle():
    rng = random.Random(2024)
    ranks = set()
    with_lineality = with_rays = 0
    for n in (1, 2, 3, 4):
        for _ in range(150 if n < 4 else 80):
            rows = _random_system(rng, n)
            want = rays_oracle(rows, n)
            got = rays_from_inequalities(list(map(integer_row, rows)), n)
            assert got == want, rows
            ranks.add(rank(rows) if rows else 0)
            with_lineality += bool(got[0]) and len(got[0]) < n
            with_rays += bool(got[1])
            lin, cone_rays = got
            gens = list(lin) + list(cone_rays)
            cone = Cone(n, cone_rays, lin)
            assert cone_dim(cone) == (rank(gens) if gens else 0)
            if rows:
                v = rng.choice(rows)
                den = common_den(rows)
                normal, dim = _normal_cone(scaled(v, den),
                                           [scaled(w, den) for w in rows],
                                           Cone.zero(n))
                ineqs = [tuple(a - b for a, b in zip(w, v))
                         for w in rows if w != v]
                lin2, rays2 = rays_oracle(ineqs, n)
                gens2 = list(lin2) + list(rays2)
                assert (normal.lineality, normal.rays, dim) \
                    == (lin2, rays2, rank(gens2) if gens2 else 0)
    assert ranks == {0, 1, 2, 3, 4}
    assert with_lineality > 100 and with_rays > 250


def test_cone_dual_orthant():
    c = orthant(2)
    assert c.dual() == c
    assert c.contains((1, 5))
    assert not c.contains((-1, 0))
    assert c.is_pointed()
    assert cone_dim(c) == 2


def test_cone_canonical_rays():
    c1 = Cone.from_generators([(1, 0), (1, 1), (0, 1)], 2)
    c2 = Cone.from_generators([(0, 1), (1, 0)], 2)
    assert c1 == c2
    assert sorted(c1.rays) == [(0, 1), (1, 0)]


def test_cone_halfplane_lineality():
    c = Cone.from_generators([(1, 0), (-1, 0), (0, 1)], 2)
    assert not c.is_pointed()
    assert c.contains((-7, 0))
    d = c.dual()
    assert d.contains((0, 1)) and not d.contains((1, 0))


def test_cone_zero_dual():
    z = Cone.zero(1)
    assert z.dual().contains((1,)) and z.dual().contains((-1,))


def test_polyhedron_vertices_pruned():
    # the midpoint is not a vertex
    p = Polyhedron.from_points([(0,), (2,), (1,)], Cone.zero(1))
    assert sorted(p.vertices) == [(0,), (2,)]


def test_polyhedron_minimize():
    tail = orthant(2)
    p = Polyhedron.from_points([(1, 0), (0, 1)], tail)
    assert p.minimize((1, 1)) == 1
    assert p.minimize((2, 1)) == 1
    assert argmin_vertices(p, (2, 1)) == [(0, 1)]
    assert p.minimize((-1, 0)) is None  # unbounded below


def test_minkowski_weighted_sum():
    # 2 * {0, 1} + {1/2} over the denominator 2
    tail = Cone.zero(1)
    a = Polyhedron.from_points([(0,), (2,)], tail)
    b = Polyhedron.from_points([(1,)], tail)
    s, parts = minkowski_weighted_sum([(2, a), (1, b)])
    assert s.vertices == ((1,), (5,))
    assert parts == {(1,): ((0,), (1,)), (5,): ((2,), (1,))}
    assert [cone for _, cone in s.normal_fan()] \
        == [Cone.from_generators([(1,)], 1), Cone.from_generators([(-1,)], 1)]


def _random_tail(rng, n):
    """The zero cone or a pointed cone on up to n small integer vectors."""
    if rng.random() < 0.3:
        return Cone.zero(n)
    while True:
        gens = [tuple(rng.randint(-1, 2) for _ in range(n))
                for _ in range(rng.randint(1, n))]
        tail = Cone.from_generators([g for g in gens if any(g)] or
                                    [(1,) * n], n)
        if tail.is_pointed():
            return tail


def _random_points(rng, n, tail, most=4):
    """Up to 2 * most - 1 rational points, with duplicates and non-vertex
    points: midpoints and points moved along a tail ray."""
    pts = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
           for _ in range(rng.randint(1, most))]
    for _ in range(rng.randint(0, most - 1)):
        a, b = rng.choice(pts), rng.choice(pts)
        kind = rng.random()
        if kind < 0.3:
            pts.append(a)
        elif kind < 0.7:
            pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
        elif tail.rays:
            pts.append(vadd(a, rng.choice(tail.rays)))
    rng.shuffle(pts)
    return pts


def test_integer_polyhedra_match_fraction_oracle():
    """On rational point sets scaled by their lcm, the integer vertices,
    normal fans and Minkowski sums are the oracle's times that lcm."""
    rng = random.Random(16)
    pruned = fans = sums = tailed = 0
    for n, trials in ((1, 40), (2, 40), (3, 25), (4, 8)):
        for _ in range(trials):
            tail = _random_tail(rng, n)
            # a small second summand keeps the oracle's sums small
            terms = [(rng.randint(1, 3), _random_points(rng, n, tail, most))
                     for most in (4, 2)[:rng.randint(1, 2)]]
            den = common_den([p for _, pts in terms for p in pts])
            polys = []
            for _, pts in terms:
                poly = Polyhedron.from_points([scaled(p, den) for p in pts],
                                              tail)
                want = from_points_oracle(pts, tail)
                assert [rational(v, den) for v in poly.vertices] == want
                assert [(rational(v, den), cone)
                        for v, cone in poly.normal_fan()] \
                    == normal_fan_oracle(want, tail)
                pruned += len(want) < len(pts)
                fans += len(want) > 1
                polys.append(poly)
            got, parts = minkowski_weighted_sum(
                [(w, p) for (w, _), p in zip(terms, polys)])
            want = minkowski_oracle(terms, tail)
            assert [rational(v, den) for v in got.vertices] == want
            assert [(rational(v, den), cone)
                    for v, cone in got.normal_fan()] \
                == normal_fan_oracle(want, tail)
            for v in got.vertices:
                assert all(u in p.vertices for u, p in zip(parts[v], polys))
                assert v == tuple(sum(w * u[i] for (w, _), u
                                      in zip(terms, parts[v]))
                                  for i in range(n))
            sums += len(terms) > 1
            tailed += bool(tail.rays)
    assert pruned > 80 and fans > 50 and sums > 40 and tailed > 40, \
        (pruned, fans, sums, tailed)


def _all_sums_reference(terms):
    """The weighted Minkowski sum built from every weighted sum of vertices,
    one per term: its vertices by `from_points`, each vertex's cone by
    `_normal_cone` over all the sums, and the choices summing to each
    vertex."""
    tail = terms[0][1].tail
    choices = {}
    for choice in product(*(p.vertices for _, p in terms)):
        s = tuple(sum(w * v[i] for (w, _), v in zip(terms, choice))
                  for i in range(tail.n))
        choices.setdefault(s, []).append(choice)
    sums = list(choices)
    deg = Polyhedron.from_points(sums, tail)
    fan = tuple((v, _normal_cone(v, sums, tail)[0]) for v in deg.vertices)
    return deg, fan, {v: choices[v] for v in deg.vertices}


def _check_refinement(terms):
    got, parts = minkowski_weighted_sum(terms)
    want, fan, choices = _all_sums_reference(terms)
    assert got == want
    assert got.normal_fan() == fan
    # a vertex of the sum is a weighted sum of summand vertices one way only
    assert parts == {v: only for v, (only,) in choices.items()}
    return len(got.vertices)


def test_refined_fan_matches_all_sums(monkeypatch):
    """The Minkowski sum's fan and decompositions, built by refining the
    summands' fans, are those read off every weighted sum of vertices: on
    the sums of the sampler's draws and on the oracle's point sets."""
    import ghz.tvariety as tvariety
    from ghz.classifier import _random_family
    from ghz.curves import A1, P1
    from ghz.fields import PrimeField, Rationals

    drawn = []

    def recording(terms):
        drawn.append(list(terms))
        return minkowski_weighted_sum(drawn[-1])

    monkeypatch.setattr(tvariety, "minkowski_weighted_sum", recording)
    rng = random.Random(18)
    for field in (Rationals(), PrimeField(2), PrimeField(3)):
        for curve in (A1, P1):
            for rank in (1, 2, 3):
                for _ in range(30):
                    _random_family(rng, field, curve, rank)
    sizes = [(len(terms), _check_refinement(terms)) for terms in drawn]
    assert sum(k > 1 and v > 1 for k, v in sizes) > 80, sizes

    sizes = []
    for n, trials in ((1, 30), (2, 40), (3, 30), (4, 12)):
        for _ in range(trials):
            tail = _random_tail(rng, n)
            point_sets = [_random_points(rng, n, tail, most)
                          for most in (4, 2, 2)[:rng.randint(1, 3)]]
            den = common_den([p for pts in point_sets for p in pts])
            terms = [(rng.randint(1, 3), Polyhedron.from_points(
                [scaled(p, den) for p in pts], tail)) for pts in point_sets]
            sizes.append((len(terms), _check_refinement(terms)))
    assert sum(k > 1 and v > 2 for k, v in sizes) > 25, sizes


# every lru_cache of the package's modules and of their classes, by name:
# [maxsize, currsize], read right after import
_LIST_CACHES = """
import json, sys
import ghz.cli, ghz.classifier
caches = {}
for name, mod in list(sys.modules.items()):
    if name == "ghz" or name.startswith("ghz."):
        classes = [c for c in vars(mod).values() if isinstance(c, type)]
        for owner in [mod, *classes]:
            for f in vars(owner).values():
                if hasattr(f, "cache_info"):
                    info = f.cache_info()
                    caches[f"{f.__module__}.{f.__qualname__}"] = [
                        info.maxsize, info.currsize]
print(json.dumps(caches))
"""


def test_memoized_kernel_matches_the_unmemoized_one():
    """Row lists of one cone that differ by order, duplicates and positive
    scales give the unmemoized cone's answer; every cache of the package,
    found by its ``cache_info``, is bounded and empty after import."""
    assert _cone.cache_info().maxsize is not None
    rng = random.Random(19)
    for n in (1, 2, 3, 4):
        for _ in range(60):
            rows = [integer_row(r) for r in _random_system(rng, n)]
            want = _cone.__wrapped__(tuple(r for r in rows if any(r)), n)
            for _ in range(3):
                variant = rows + rng.sample(rows, rng.randint(0, len(rows)))
                scales = [rng.randint(1, 4) for _ in variant]
                variant = [tuple(c * x for x in r)
                           for c, r in zip(scales, variant)]
                rng.shuffle(variant)
                assert _cone_of(variant, n) == want, rows
    src = Path(geometry.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-c", _LIST_CACHES], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)})
    caches = json.loads(out.stdout)
    assert {"ghz.geometry._cone", "ghz.geometry._polyhedron",
            "ghz.geometry._meet", "ghz.classifier._tail_cone",
            "ghz.classifier._sample_points"} <= set(caches)
    for name, (maxsize, currsize) in caches.items():
        assert maxsize is not None and currsize == 0, name


def test_polyhedron_cache_ignores_how_the_points_are_written():
    """Permuted, duplicated and list-or-tuple point lists of one polyhedron
    give equal polyhedra and normal fans, as the uncached builder does."""
    rng = random.Random(22)
    for n, trials in ((1, 10), (2, 15), (3, 10), (4, 5)):
        for _ in range(trials):
            tail = _random_tail(rng, n)
            pts = _random_points(rng, n, tail)
            den = common_den(pts)
            pts = [scaled(p, den) for p in pts]
            want = geometry._polyhedron.__wrapped__(
                tuple(dict.fromkeys(pts)), tail)
            shuffled = pts + rng.sample(pts, rng.randint(0, len(pts)))
            rng.shuffle(shuffled)
            for variant in (pts, shuffled, [list(p) for p in shuffled],
                            tuple(reversed(pts))):
                got = Polyhedron.from_points(variant, tail)
                assert got == want
                assert got.normal_fan() == want.normal_fan()


@pytest.mark.parametrize("build, message", [
    (lambda: Polyhedron.from_points([], Cone.zero(1)),
     "a polyhedron needs at least one point"),
    (lambda: minkowski_weighted_sum([]), "empty Minkowski sum"),
    (lambda: minkowski_weighted_sum([
        (1, Polyhedron.from_points([(0,)], Cone.zero(1))),
        (1, Polyhedron.from_points([(0,)], Cone.from_generators([(1,)], 1)))]),
     "mismatched tail cones"),
    (lambda: minkowski_weighted_sum([
        (0, Polyhedron.from_points([(0,)], Cone.zero(1)))]),
     "weights must be positive"),
    (lambda: Cone.from_generators([(1, 0, 0, 0, 0)], 5),
     "rank 5 exceeds supported maximum 4")],
    ids=["no-point", "empty-sum", "mismatched-tails", "zero-weight",
         "rank-5"])
def test_geometry_guards_raise_on_every_call(build, message):
    """Each guard raises again on an identical second call, so no cache
    stores or hides a failure."""
    for _ in range(2):
        with pytest.raises(GeometryError, match=message):
            build()


def test_normal_fan_reads_the_stored_fan(monkeypatch):
    """`normal_fan` computes no normal cone: it returns the cones that
    `from_points` built to find the vertices."""
    normal_cone = _normal_cone
    calls = []

    def counting(*args):
        calls.append(args)
        return normal_cone(*args)

    monkeypatch.setattr(geometry, "_normal_cone", counting)
    rng = random.Random(20)
    fans = 0
    for n, trials in ((1, 20), (2, 20), (3, 15), (4, 8)):
        for _ in range(trials):
            tail = _random_tail(rng, n)
            pts = _random_points(rng, n, tail)
            den = common_den(pts)
            poly = Polyhedron.from_points([scaled(p, den) for p in pts], tail)
            made = len(calls)
            fan = poly.normal_fan()
            assert len(calls) == made
            assert fan == tuple((v, normal_cone(v, poly.vertices, tail)[0])
                                for v in poly.vertices)
            fans += len(fan) > 1
    assert calls and fans > 20, fans


def test_rebuilt_polyhedron_runs_no_elimination(monkeypatch):
    """Each distinct normal cone, with its dimension, is computed once:
    building the same polyhedron again makes no `_echelon` call, and gives
    the same vertices and fan."""
    echelon = geometry._echelon
    calls = []

    def counting(rows):
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(geometry, "_echelon", counting)
    geometry._cone.cache_clear()
    rng = random.Random(21)
    for n, trials in ((1, 10), (2, 10), (3, 8), (4, 4)):
        for _ in range(trials):
            tail = _random_tail(rng, n)
            pts = _random_points(rng, n, tail)
            den = common_den(pts)
            pts = [scaled(p, den) for p in pts]
            first = Polyhedron.from_points(pts, tail)
            made = len(calls)
            geometry._polyhedron.cache_clear()  # rebuild through the cones
            again = Polyhedron.from_points(pts, tail)
            assert len(calls) == made
            assert again.normal_fan() == first.normal_fan()
    assert calls
    assert geometry._cone.cache_info().maxsize is not None


def test_one_point_polyhedron_matches_generic_path():
    tails = [Cone.zero(1), orthant(1), Cone.from_generators([(-1,)], 1),
             Cone.zero(2), orthant(2),
             Cone.from_generators([(1, 2), (2, 1)], 2),
             Cone.from_generators([(1, -1)], 2),
             Cone.zero(3), orthant(3),
             Cone.from_generators([(1, 1, 1)], 3),
             Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 0, 1),
                                   (0, 1, 1)], 3)]
    for tail in tails:
        pt = tuple(i - 1 for i in range(tail.n))
        cone, dim = _normal_cone(pt, [pt], tail)
        generic = [(pt, cone)] if dim == tail.n else []
        for p in (Polyhedron.from_points([pt], tail),
                  Polyhedron.from_points([pt, pt], tail)):
            assert p == Polyhedron(tail.n, generic, tail)
            assert p.normal_fan() == tuple(generic)
    halfplane = Cone.from_generators([(1, 0), (-1, 0), (0, 1)], 2)
    with pytest.raises(GeometryError):
        Polyhedron.from_points([(0, 0)], halfplane)


def test_lattice_basis_and_membership():
    basis = lattice_basis([(5,)], 1)
    assert basis == [[5]]
    assert in_lattice((10,), basis)
    assert not in_lattice((7,), basis)
    basis2 = lattice_basis([(2, 0), (0, 1), (2, 1)], 2)
    assert in_lattice((4, 3), basis2)
    assert not in_lattice((3, 0), basis2)


def test_lattice_basis_gcd():
    basis = lattice_basis([(4,), (6,)], 1)
    assert basis == [[2]]


def test_lattice_box():
    box = lattice_box(2, 1)
    assert len(box) == 9
    assert (0, 0) in box and (-1, 1) in box
