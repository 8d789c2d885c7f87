"""Exact rational cones and polyhedra in small dimension (rank <= 4).

Vectors are tuples of Fractions (or ints for lattice vectors).  Cones are
stored by primitive extreme rays plus a canonical lineality basis; both
descriptions (generators and inequalities) are obtained through the same
facet-subset enumeration, which is entirely adequate at rank <= 4.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


MAX_RANK = 4


class GeometryError(ValueError):
    pass


# -- vector helpers ---------------------------------------------------------

def vec(coords):
    return tuple(Fraction(c) for c in coords)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    c = Fraction(c)
    return tuple(c * x for x in a)


def is_zero_vec(a):
    return all(x == 0 for x in a)


def primitive(r):
    """Smallest lattice point on the ray through r (orientation kept)."""
    r = vec(r)
    if is_zero_vec(r):
        raise GeometryError("zero vector has no primitive generator")
    mult = lcm(*[x.denominator for x in r])
    ints = [int(x * mult) for x in r]
    g = gcd(*[abs(i) for i in ints])
    return tuple(i // g for i in ints)


# -- exact linear algebra ---------------------------------------------------

def rref(rows):
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    rows = [list(vec(r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    cur = 0
    for col in range(ncols):
        piv = next((i for i in range(cur, len(rows)) if rows[i][col] != 0), None)
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
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(tuple(v))
    return basis


def _canonical_basis(rows):
    """Canonical primitive basis of a rational subspace."""
    red, _ = rref(rows)
    out = []
    for r in red:
        if is_zero_vec(r):
            continue
        out.append(primitive(r))
    return tuple(sorted(out))


# -- cones ------------------------------------------------------------------

def rays_from_inequalities(ineqs, n):
    """Extreme rays and lineality of {x in Q^n : a . x >= 0 for a in ineqs}.

    Extreme rays are found as one-dimensional nullspaces of (k-1)-subsets of
    the constraints after splitting off the lineality space, where k is the
    rank of the constraint matrix.
    """
    ineqs = [vec(a) for a in ineqs if not is_zero_vec(vec(a))]
    lin = nullspace(ineqs, n)
    if not ineqs:
        return _canonical_basis(lin) if lin else (), ()
    row_basis, _ = rref(ineqs)
    row_basis = [b for b in row_basis if not is_zero_vec(b)]
    k = len(row_basis)
    # constraints in coordinates of the row space: x = sum c_j * b_j
    proj = [tuple(dot(a, b) for b in row_basis) for a in ineqs]
    rays = set()
    if k == 1:
        candidates = [(Fraction(1),)]
    else:
        candidates = []
        for subset in combinations(range(len(proj)), k - 1):
            sub = [proj[i] for i in subset]
            ns = nullspace(sub, k)
            if len(ns) == 1:
                candidates.append(ns[0])
    for c in candidates:
        for sign in (1, -1):
            cc = vscale(sign, c)
            if all(dot(a, cc) >= 0 for a in proj):
                ray = tuple(sum(cc[j] * row_basis[j][i] for j in range(k))
                            for i in range(n))
                if not is_zero_vec(ray):
                    rays.add(primitive(ray))
                break
    lin_basis = _canonical_basis(lin) if lin else ()
    return lin_basis, tuple(sorted(rays))


class Cone:
    """Rational polyhedral cone with canonical primitive rays and lineality."""

    __slots__ = ("n", "rays", "lineality", "_dual")

    def __init__(self, n, rays, lineality=()):
        self.n = n
        self.rays = tuple(rays)
        self.lineality = tuple(lineality)
        self._dual = None

    @classmethod
    def from_generators(cls, gens, n):
        """Canonical cone generated by arbitrary rational vectors."""
        if n > MAX_RANK:
            raise GeometryError(f"rank {n} exceeds supported maximum {MAX_RANK}")
        gens = [vec(g) for g in gens if not is_zero_vec(vec(g))]
        if not gens:
            return cls(n, (), ())
        dual_lin, dual_rays = rays_from_inequalities(gens, n)
        ineqs = list(dual_rays)
        for l in dual_lin:
            ineqs.append(l)
            ineqs.append(vscale(-1, l))
        lin, rays = rays_from_inequalities(ineqs, n)
        return cls(n, rays, lin)

    @classmethod
    def zero(cls, n):
        return cls(n, (), ())

    @classmethod
    def orthant(cls, n):
        gens = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            gens.append(tuple(e))
        return cls.from_generators(gens, n)

    def generators(self):
        out = list(self.rays)
        for l in self.lineality:
            out.append(l)
            out.append(tuple(-x for x in l))
        return out

    def dual(self) -> "Cone":
        """{m : <m, v> >= 0 for all v in the cone}; involutive."""
        if self._dual is None:
            ineqs = self.generators()
            lin, rays = rays_from_inequalities(ineqs, self.n)
            self._dual = Cone(self.n, rays, lin)
            self._dual._dual = Cone(self.n, self.rays, self.lineality)
        return self._dual

    def contains(self, v) -> bool:
        v = vec(v)
        d = self.dual()
        if any(dot(r, v) < 0 for r in d.rays):
            return False
        return all(dot(l, v) == 0 for l in d.lineality)

    def interior_point(self):
        """A point in the relative interior (sum of generators)."""
        gens = self.generators()
        if not gens:
            return tuple(Fraction(0) for _ in range(self.n))
        acc = gens[0]
        for g in gens[1:]:
            acc = vadd(acc, g)
        return acc

    @property
    def dim(self) -> int:
        gens = list(self.rays) + list(self.lineality)
        return rank(gens) if gens else 0

    def is_pointed(self) -> bool:
        return not self.lineality

    def __eq__(self, other):
        return (isinstance(other, Cone) and self.n == other.n
                and self.rays == other.rays and self.lineality == other.lineality)

    def __hash__(self):
        return hash((self.n, self.rays, self.lineality))

    def __repr__(self):
        if self.lineality:
            return f"Cone(rays={list(self.rays)}, lineality={list(self.lineality)})"
        return f"Cone(rays={list(self.rays)})"


class Polyhedron:
    """conv(vertices) + tail cone, in canonical irredundant form."""

    __slots__ = ("n", "vertices", "tail")

    def __init__(self, n, vertices, tail: Cone):
        self.n = n
        self.vertices = tuple(vertices)
        self.tail = tail

    @classmethod
    def from_points(cls, points, tail: Cone):
        """Canonicalize: keep only true vertices of conv(points) + tail."""
        if not tail.is_pointed():
            raise GeometryError("tail cone must be pointed")
        n = tail.n
        pts = []
        for p in points:
            p = vec(p)
            if p not in pts:
                pts.append(p)
        if not pts:
            raise GeometryError("a polyhedron needs at least one point")
        if len(pts) == 1:
            # the normal cone of a lone point is the dual of the pointed
            # tail, which is full-dimensional: the point is the vertex
            return cls(n, pts, tail)
        verts = [p for p in pts if _normal_cone_data(p, pts, tail)[2] == n]
        return cls(n, sorted(verts), tail)

    def minimize(self, m):
        """min over the polyhedron of <m, .>, or None for minus infinity."""
        m = vec(m)
        for r in self.tail.rays:
            if dot(m, r) < 0:
                return None
        return min(dot(m, v) for v in self.vertices)

    def argmin_vertices(self, m):
        m = vec(m)
        best = self.minimize(m)
        if best is None:
            return []
        return [v for v in self.vertices if dot(m, v) == best]

    def scale(self, c):
        if c <= 0:
            raise GeometryError("positive scaling only")
        return Polyhedron(self.n, sorted(vscale(c, v) for v in self.vertices),
                          self.tail)

    def normal_fan(self):
        """[(vertex, cone of m where the vertex is minimizing)]; the cones
        cover the dual of the tail."""
        pts = list(self.vertices)
        out = []
        for v in pts:
            lin, rays, _ = _normal_cone_data(v, pts, self.tail)
            out.append((v, Cone(self.n, rays, lin)))
        return out

    def __eq__(self, other):
        return (isinstance(other, Polyhedron) and self.vertices == other.vertices
                and self.tail == other.tail)

    def __hash__(self):
        return hash((self.vertices, self.tail))

    def __repr__(self):
        return f"Polyhedron(vertices={list(self.vertices)}, tail={self.tail!r})"


def _normal_cone_data(v, points, tail: Cone):
    """(lineality, rays, dim) of {m : <m, w - v> >= 0, <m, r> >= 0}."""
    n = tail.n
    ineqs = [vsub(w, v) for w in points if w != v]
    ineqs.extend(tail.rays)
    lin, rays = rays_from_inequalities(ineqs, n)
    gens = list(lin) + list(rays)
    return lin, rays, (rank(gens) if gens else 0)


def minkowski_points(terms):
    """Every weighted sum of vertices, one per term: the weighted Minkowski
    sum of polyhedra with a common tail cone is their convex hull plus the
    tail."""
    terms = list(terms)
    if not terms:
        raise GeometryError("empty Minkowski sum")
    tail = terms[0][1].tail
    for _, p in terms:
        if p.tail != tail:
            raise GeometryError("mismatched tail cones in Minkowski sum")
    sums = [tuple(Fraction(0) for _ in range(tail.n))]
    for weight, p in terms:
        if weight <= 0:
            raise GeometryError("weights must be positive")
        scaled = [vscale(weight, v) for v in p.vertices]
        sums = [vadd(s, w) for s in sums for w in scaled]
    return sums


def minkowski_weighted_sum(terms):
    """Weighted Minkowski sum of polyhedra with a common tail cone."""
    terms = list(terms)
    return Polyhedron.from_points(minkowski_points(terms), terms[0][1].tail)


def cone_from_polyhedron_at_height(p: Polyhedron, h, extra_rays=()):
    """Cone generated by (v, h) for vertices, (r, 0) for tail rays, plus
    extra rays, in the ambient space of one higher rank."""
    h = Fraction(h)
    gens = [tuple(list(v) + [h]) for v in p.vertices]
    gens.extend(tuple(list(r) + [0]) for r in p.tail.rays)
    gens.extend(vec(r) for r in extra_rays)
    return Cone.from_generators(gens, p.n + 1)


def lattice_basis(vectors, n):
    """Triangular integer basis of the subgroup generated by the vectors."""
    rows = [[int(x) for x in v] for v in vectors if any(x != 0 for x in v)]
    basis = []
    col = 0
    while col < n and rows:
        sel = [r for r in rows if r[col] != 0]
        rows = [r for r in rows if r[col] == 0]
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(r[col]))
            a = sel[0]
            rest = []
            for r in sel[1:]:
                q = r[col] // a[col]
                rr = [x - q * y for x, y in zip(r, a)]
                if rr[col] != 0:
                    rest.append(rr)
                elif any(rr):
                    rows.append(rr)
            sel = [a] + rest
        if sel:
            a = sel[0]
            if a[col] < 0:
                a = [-x for x in a]
            basis.append(a)
        col += 1
    return basis


def in_lattice(v, basis):
    """Is the integer vector in the subgroup with the triangular basis?"""
    v = [Fraction(int(x)) for x in v]
    for b in basis:
        piv = next(i for i, x in enumerate(b) if x != 0)
        if v[piv] != 0:
            q = Fraction(v[piv], b[piv])
            if q.denominator != 1:
                return False
            v = [x - q * y for x, y in zip(v, b)]
    return all(x == 0 for x in v)


def lattice_box(n, bound):
    """All integer points with coordinates in [-bound, bound]."""
    def rec(i):
        if i == n:
            yield ()
            return
        for rest in rec(i + 1):
            for c in range(-bound, bound + 1):
                yield (c,) + rest
    return list(rec(0))
