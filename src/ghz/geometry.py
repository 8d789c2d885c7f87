"""Exact rational cones and polyhedra in small dimension (rank <= 4), on
integers.

Weights (points of the lattice M) are int tuples, and so are vertices: a
polyhedral divisor holds one positive denominator ``den`` and stores its
rational vertex v as the int tuple den * v. Cones and normal fans do not
change under that scaling; only `fmt_vec` reads den, to print v. Cones are
stored by primitive integer extreme rays plus a canonical integer lineality
basis; both descriptions (generators and inequalities) come from one integer
kernel, `rays_from_inequalities`: rank and lineality from fraction-free
Gauss-Jordan elimination and each ray candidate as a cofactor vector of at
most 3 x 3 determinants.

Each sampled object is built once, through three bounded caches: cones by
their rows scaled to primitive integer rows, deduplicated and sorted;
polyhedra by point list and tail; cone meets by pair. A polyhedron keeps the
cones that `from_points` built to find its vertices, and a Minkowski sum
refines its summands' stored fans one summand at a time (Ziegler, Lectures
on Polytopes, Prop. 7.12).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd
from operator import itemgetter, mul


MAX_RANK = 4


class GeometryError(ValueError):
    pass


# -- vector helpers ---------------------------------------------------------

def dot(a, b):
    return sum(map(mul, a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def primitive(r):
    """Smallest lattice point on the ray through the integer vector r
    (orientation kept)."""
    g = gcd(*r)
    if not g:
        raise GeometryError("zero vector has no primitive generator")
    return tuple(x // g for x in r)


def fmt_ratio(x, den):
    """The rational number x/den in lowest terms, as str(Fraction) prints it."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def fmt_vec(v, den):
    """The rational vector v/den, e.g. "(1/2, 0)"."""
    return "(" + ", ".join(fmt_ratio(x, den) for x in v) + ")"


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
    """Extreme rays and lineality of {x in Q^n : a . x >= 0 for a in ineqs},
    for integer rows a, by the kernel `_rays`."""
    return _rays(_canonical(ineqs), n)


def _canonical(rows):
    """Each row scaled to its primitive multiple, which leaves the cone
    unchanged, then deduplicated and sorted: every list of rows for one
    cone is one key of the cone cache."""
    return tuple(sorted({primitive(a) for a in rows if any(a)}))


def _rays(rows, n):
    """`rays_from_inequalities` on integer rows. With k the rank of the
    rows, every extreme ray spans the kernel of k - 1 independent rows
    stacked with the lineality basis, n - 1 rows in all: their cofactor
    vector, taken with the sign that satisfies every row."""
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
        """Canonical cone generated by arbitrary integer vectors."""
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
    """conv(vertices) + tail cone, in canonical irredundant form, with int
    vertices (a divisor's polyhedron scaled by its denominator), and its
    normal fan: for each vertex, in order, the cone of weights where it is
    minimizing."""

    __slots__ = ("n", "vertices", "tail", "_fan")

    def __init__(self, n, fan, tail: Cone):
        self.n = n
        self._fan = tuple(fan)
        self.vertices = tuple(v for v, _ in self._fan)
        self.tail = tail

    @classmethod
    def from_points(cls, points, tail: Cone):
        """Canonicalize: keep only true vertices of conv(points) + tail,
        each with the normal cone that decided it."""
        if not tail.is_pointed():
            raise GeometryError("tail cone must be pointed")
        pts = tuple(dict.fromkeys(map(tuple, points)))
        if not pts:
            raise GeometryError("a polyhedron needs at least one point")
        return _polyhedron(pts, tail)

    def minimize(self, m):
        """min over the polyhedron of <m, .>, or None for minus infinity."""
        for r in self.tail.rays:
            if dot(m, r) < 0:
                return None
        return min(dot(m, v) for v in self.vertices)

    def normal_fan(self):
        """((vertex, cone of m where the vertex is minimizing), ...), by
        vertex; the cones cover the dual of the tail."""
        return self._fan

    def __eq__(self, other):
        return (isinstance(other, Polyhedron) and self.vertices == other.vertices
                and self.tail == other.tail)

    def __hash__(self):
        return hash((self.vertices, self.tail))

    def __repr__(self):
        return f"Polyhedron(vertices={list(self.vertices)}, tail={self.tail!r})"


def _cone_of(rows, n):
    """{m : <m, a> >= 0 for every row a} and its dimension."""
    return _cone(_canonical(rows), n)


@lru_cache(maxsize=1024)
def _cone(rows, n):
    """`_cone_of` on canonical rows: each distinct cone is built, and its
    dimension computed, once."""
    lin, rays = _rays(rows, n)
    return Cone(n, rays, lin), len(_echelon(lin + rays)[1])


@lru_cache(maxsize=1024)
def _polyhedron(pts, tail):
    """`from_points` on distinct points: each polyhedron is built once, and
    shared, as no polyhedron or cone is changed after it is built."""
    if len(pts) == 1:
        # a lone point's normal cone is the full-dimensional dual of the tail
        return Polyhedron(tail.n, [(pts[0], tail.dual())], tail)
    fan = [(p, cone) for p in pts
           for cone, dim in [_normal_cone(p, pts, tail)] if dim == tail.n]
    return Polyhedron(tail.n, sorted(fan, key=itemgetter(0)), tail)


@lru_cache(maxsize=1024)
def _meet(a, b):
    """The intersection of two cones of one space, and its dimension."""
    return _cone_of(a.dual().generators() + b.dual().generators(), a.n)


def _normal_cone(v, points, tail: Cone):
    """{m : <m, w - v> >= 0, <m, r> >= 0} and its dimension."""
    return _cone_of([vsub(w, v) for w in points if w != v] + list(tail.rays),
                    tail.n)


def minkowski_weighted_sum(terms):
    """Weighted Minkowski sum of polyhedra with a common tail cone, for
    positive int weights: (sum, parts), with parts[v] the vertices, one per
    term, whose weighted sum is the vertex v.

    The terms' stored fans are refined one term at a time: each kept cone
    meets every vertex cone of the next term, and full-dimensional meets
    stay. The sum's normal cone at a vertex lies in the meet of each prefix
    of its choice, so none is lost, and no two such cones share interior."""
    terms = list(terms)
    if not terms:
        raise GeometryError("empty Minkowski sum")
    tail = terms[0][1].tail
    for weight, p in terms:
        if p.tail != tail:
            raise GeometryError("mismatched tail cones in Minkowski sum")
        if weight <= 0:
            raise GeometryError("weights must be positive")
    n = tail.n
    (weight, first), *rest = terms  # kept: (cone, weighted sum, choice)
    kept = [(cone, tuple(weight * x for x in v), (v,))
            for v, cone in first.normal_fan()]
    for weight, p in rest:
        kept = [(meet, tuple(a + weight * b for a, b in zip(s, v)), (*c, v))
                for cone, s, c in kept for v, vcone in p.normal_fan()
                for meet, dim in [_meet(cone, vcone)] if dim == n]
    fan = sorted(((s, cone) for cone, s, _ in kept), key=itemgetter(0))
    return Polyhedron(n, fan, tail), {s: c for _, s, c in kept}


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


def lattice_box(n, bound):
    """All integer points with coordinates in [-bound, bound], the first
    coordinate varying fastest."""
    return [p[::-1] for p in product(range(-bound, bound + 1), repeat=n)]
