"""Exact rational cones and polyhedra in small dimension (rank <= 4).

Vectors are tuples of ints or Fractions; `dot` and `Cone.contains` pair
them as given.  Cones are stored by primitive integer extreme rays plus a
canonical integer lineality basis; both descriptions (generators and
inequalities) come from one integer kernel, `rays_from_inequalities`: rows
scaled to primitive integer rows, rank and lineality from fraction-free
Gauss-Jordan elimination, and each ray candidate as a cofactor vector of at
most 3 x 3 determinants.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul


MAX_RANK = 4


class GeometryError(ValueError):
    pass


# -- vector helpers ---------------------------------------------------------

def vec(coords):
    return tuple(Fraction(c) for c in coords)


def dot(a, b):
    return sum(map(mul, a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    c = Fraction(c)
    return tuple(c * x for x in a)


def primitive(r):
    """Smallest lattice point on the ray through r (orientation kept)."""
    m = lcm(*[x.denominator for x in r])
    ints = [x.numerator * (m // x.denominator) for x in r]
    g = gcd(*ints)
    if not g:
        raise GeometryError("zero vector has no primitive generator")
    return tuple(i // g for i in ints)


# -- fraction-free linear algebra -------------------------------------------

def _echelon(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss,
    Math. Comp. 22, 1968): (nonzero rows, pivot columns). Each division by
    the previous pivot is exact, every pivot ends equal to the last one, and
    each row is a multiple of its row of the reduced echelon form."""
    rows, pivots, prev = [list(r) for r in rows], [], 1
    for col in range(len(rows[0]) if rows else 0):
        cur = len(pivots)
        piv = next((i for i in range(cur, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[cur], rows[piv] = rows[piv], rows[cur]
        top, d = rows[cur], rows[cur][col]
        rows = [r if i == cur else
                [(d * x - r[col] * y) // prev for x, y in zip(r, top)]
                for i, r in enumerate(rows)]
        prev = d
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _lineality(rows, n):
    """Canonical basis of {x : r . x = 0 for every integer row r}: the
    primitive multiples, with positive pivot, of the reduced echelon rows of
    that subspace, sorted."""
    red, pivots = _echelon(rows)
    d = red[0][pivots[0]] if red else 1
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = d
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        kernel.append(v)
    red, pivots = _echelon(kernel)
    return tuple(sorted(primitive(r if r[pc] > 0 else [-x for x in r])
                        for r, pc in zip(red, pivots)))


def _cofactors(m):
    """Generalized cross product of k integer rows of length k + 1, by
    Laplace expansion: orthogonal to every row, and zero exactly when the
    rows are dependent."""
    if not m:
        return (1,)
    head, rest = m[0], m[1:]
    return tuple((-1) ** j * dot(head[:j] + head[j + 1:],
                                 _cofactors([r[:j] + r[j + 1:] for r in rest]))
                 for j in range(len(head)))


# -- cones ------------------------------------------------------------------

def rays_from_inequalities(ineqs, n):
    """Extreme rays and lineality of {x in Q^n : a . x >= 0 for a in ineqs}.

    Runs on integers: each row is scaled to its primitive integer multiple,
    which leaves the cone unchanged. With k the rank of the rows, every
    extreme ray spans the kernel of k - 1 independent rows stacked with the
    lineality basis, n - 1 rows in all: their cofactor vector, taken with
    the sign that satisfies every row.
    """
    rows = list({primitive(a) for a in ineqs if any(a)})
    lin = _lineality(rows, n)
    rays = set()
    for subset in combinations(rows, n - len(lin) - 1) if rows else ():
        c = _cofactors([*subset, *lin])
        if any(c):
            c = primitive(c)
            signs = [dot(a, c) for a in rows]
            if min(signs) >= 0:
                rays.add(c)
            elif max(signs) <= 0:
                rays.add(tuple(-x for x in c))
    return lin, tuple(sorted(rays))


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
        dual_lin, dual_rays = rays_from_inequalities(gens, n)
        dual = cls(n, dual_rays, dual_lin)
        lin, rays = rays_from_inequalities(dual.generators(), n)
        cone = cls(n, rays, lin)
        cone._dual, dual._dual = dual, cone
        return cone

    @classmethod
    def zero(cls, n):
        return cls(n, (), ())

    @classmethod
    def orthant(cls, n):
        return cls.from_generators(
            [tuple(int(i == j) for j in range(n)) for i in range(n)], n)

    def generators(self):
        out = list(self.rays)
        for l in self.lineality:
            out.append(l)
            out.append(tuple(-x for x in l))
        return out

    def dual(self) -> "Cone":
        """{m : <m, v> >= 0 for all v in the cone}; involutive."""
        if self._dual is None:
            lin, rays = rays_from_inequalities(self.generators(), self.n)
            self._dual = Cone(self.n, rays, lin)
            self._dual._dual = self
        return self._dual

    def contains(self, v) -> bool:
        """Pairs v, as given, with the dual's primitive integer rows."""
        d = self.dual()
        if any(dot(r, v) < 0 for r in d.rays):
            return False
        return all(dot(l, v) == 0 for l in d.lineality)

    def interior_point(self):
        """A point in the relative interior (sum of generators)."""
        gens = self.generators()
        if not gens:
            return tuple(Fraction(0) for _ in range(self.n))
        return tuple(map(sum, zip(*gens)))

    @property
    def dim(self) -> int:
        return len(_echelon(self.rays + self.lineality)[1])

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
    ineqs = [vsub(w, v) for w in points if w != v]
    lin, rays = rays_from_inequalities(ineqs + list(tail.rays), tail.n)
    return lin, rays, len(_echelon(lin + rays)[1])


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
    v = [int(x) for x in v]
    for b in basis:
        piv = next(i for i, x in enumerate(b) if x)
        q, r = divmod(v[piv], b[piv])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, b)]
    return not any(v)


def lattice_box(n, bound):
    """All integer points with coordinates in [-bound, bound], the first
    coordinate varying fastest."""
    return [p[::-1] for p in product(range(-bound, bound + 1), repeat=n)]
