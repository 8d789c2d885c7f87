from fractions import Fraction as F

import pytest

from ghz.geometry import (Cone, GeometryError, Polyhedron, _normal_cone_data,
                          in_lattice, lattice_basis, lattice_box,
                          cone_from_polyhedron_at_height, minkowski_points,
                          minkowski_weighted_sum, nullspace, primitive, rank,
                          vec)


def test_primitive():
    assert primitive((F(2, 3), F(4, 3))) == (1, 2)
    assert primitive((F(0), F(-5))) == (0, -1)
    with pytest.raises(GeometryError):
        primitive((F(0), F(0)))


def test_rank_nullspace():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert rank(rows) == 2
    ns = nullspace(rows, 3)
    assert len(ns) == 1
    v = ns[0]
    assert v[0] * 1 + v[1] * 2 + v[2] * 3 == 0


def test_cone_dual_orthant():
    c = Cone.orthant(2)
    assert c.dual() == c
    assert c.contains((1, 5))
    assert not c.contains((-1, 0))
    assert c.is_pointed()
    assert c.dim == 2


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
    p = Polyhedron.from_points([(F(0),), (F(1),), (F(1, 2),)], Cone.zero(1))
    assert sorted(p.vertices) == [(F(0),), (F(1),)]


def test_polyhedron_minimize():
    tail = Cone.orthant(2)
    p = Polyhedron.from_points([(F(1), F(0)), (F(0), F(1))], tail)
    assert p.minimize((1, 1)) == 1
    assert p.minimize((2, 1)) == 1
    assert p.argmin_vertices((2, 1)) == [(F(0), F(1))]
    assert p.minimize((-1, 0)) is None  # unbounded below


def test_minkowski_weighted_sum():
    tail = Cone.zero(1)
    a = Polyhedron.from_points([(F(0),), (F(1),)], tail)
    b = Polyhedron.from_points([(F(1, 2),)], tail)
    s = minkowski_weighted_sum([(F(2), a), (F(1), b)])
    assert sorted(s.vertices) == [(F(1, 2),), (F(5, 2),)]
    assert minkowski_points([(F(2), a), (F(1), b)]) == [(F(1, 2),), (F(5, 2),)]


def test_one_point_polyhedron_matches_generic_path():
    tails = [Cone.zero(1), Cone.orthant(1), Cone.from_generators([(-1,)], 1),
             Cone.zero(2), Cone.orthant(2),
             Cone.from_generators([(1, 2), (2, 1)], 2),
             Cone.from_generators([(1, -1)], 2),
             Cone.zero(3), Cone.orthant(3),
             Cone.from_generators([(1, 1, 1)], 3),
             Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 0, 1),
                                   (0, 1, 1)], 3)]
    for tail in tails:
        pt = vec(F(i - 1, i + 2) for i in range(tail.n))
        generic = [v for v in [pt]
                   if _normal_cone_data(v, [pt], tail)[2] == tail.n]
        expected = Polyhedron(tail.n, generic, tail)
        assert Polyhedron.from_points([pt], tail) == expected
        assert Polyhedron.from_points([pt, pt], tail) == expected
    halfplane = Cone.from_generators([(1, 0), (-1, 0), (0, 1)], 2)
    with pytest.raises(GeometryError):
        Polyhedron.from_points([(F(0), F(0))], halfplane)


def test_cone_from_polyhedron_at_height():
    p = Polyhedron.from_points([(F(1, 5),)], Cone.zero(1))
    c = cone_from_polyhedron_at_height(p, 1)
    assert c.contains((1, 5))
    assert not c.contains((1, 0))


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
