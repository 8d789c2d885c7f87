"""The value records are plain slotted classes: frozen ones compare and hash
by their fields within one class and refuse assignment; ``Report`` compares
by value and owns its lists."""

import pytest

from ghz import (AssociatedCones, CoherentFamily, Coloring, Report,
                 algebra_generators, associated_cones, candidate_colorings,
                 load_builtin)
from ghz.curves import ModuleDescription
from ghz.tvariety import AlgebraGenerator, PolyhedralDivisor


@pytest.fixture(scope="module")
def scenario():
    return load_builtin("w25-imperfect")


def test_colorings_with_equal_fields_are_equal(scenario):
    c = scenario.coloring
    same = Coloring(divisor=c.divisor, vertices=dict(c.vertices), y0=c.y0)
    assert same == c and same.y_infinity is None
    moved = dict(c.vertices)
    moved[c.y0] = (2,)
    assert Coloring(c.divisor, moved, c.y0) != c


def test_frozen_records_compare_and_hash_by_fields_within_one_class(
        scenario):
    theta = scenario.family
    assert CoherentFamily(theta.coloring, theta.e, theta.s, theta.lam) \
        == theta
    # a Coloring holds its vertices in a dict, so a family over one is
    # unhashable; the field tuple is hashed all the same
    with pytest.raises(TypeError):
        hash(theta)
    fields = ("c", (1,), (2,), (3,))
    assert hash(CoherentFamily(*fields)) == hash(CoherentFamily(*fields))
    assert CoherentFamily(*fields) != ModuleDescription(*fields)

    piece = scenario.divisor.graded_piece((1,))
    fields = (piece.curve, piece.field, piece.generator, piece.degree_bound)
    assert ModuleDescription(*fields) == piece
    assert hash(ModuleDescription(*fields)) == hash(piece)
    assert piece != CoherentFamily(*fields)

    gens, _ = algebra_generators(scenario.divisor, 2)

    class Other(AlgebraGenerator):
        __slots__ = ()

    for g in gens:
        twin = AlgebraGenerator(weight=g.weight, coeff=g.coeff)
        assert twin == g and hash(twin) == hash(g)
        assert Other(g.weight, g.coeff) != g
        assert g != (g.weight, g.coeff)


def test_frozen_record_fields_are_read_only(scenario):
    theta = scenario.family
    piece = scenario.divisor.graded_piece((1,))
    records = [(theta.coloring, "y0"),
               (associated_cones(theta.coloring), "d"),
               (theta, "e"), (piece, "generator"),
               (piece, "degree_bound"),
               (algebra_generators(scenario.divisor, 2)[0][0], "weight")]
    assert {type(r) for r, _ in records} == {
        Coloring, AssociatedCones, CoherentFamily, ModuleDescription,
        AlgebraGenerator}
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert piece.degree_bound is None


def test_reports_own_their_lists_and_compare_by_value():
    a, b = Report("x"), Report("x")
    assert a == b
    a.fail("v")
    a.note("n")
    a.trust("t")
    assert b.violations == b.notes == b.trust_markers == []
    assert a != b
    b.fail("v")
    b.note("n")
    b.trust("t")
    assert a == b


def test_deferred_violations_are_formatted_once_in_place():
    calls = []

    def deferred(*messages):
        def witnesses():
            calls.append(messages)
            return list(messages)
        return witnesses

    a, b = Report("x"), Report("x")
    a.fail("v1")
    a.defer(deferred("d1", "d2"))
    a.fail("v2")
    b.defer(deferred("d3"))
    b.fail("v3")
    assert not a.ok and not b.ok and calls == []
    a.merge(b)  # carries b's thunk unresolved
    assert not a.ok and calls == []
    eager = Report("x")
    for v in ("v1", "d1", "d2", "v2", "d3", "v3"):
        eager.fail(v)
    assert a == eager and calls == [("d1", "d2"), ("d3",)]
    assert a.violations == eager.violations
    assert a.to_dict() == eager.to_dict()
    assert a.summary() == eager.summary()
    assert len(calls) == 2  # each thunk is called once
    assert b.violations == ["d3", "v3"]  # b resolves its own entry
    assert calls[2:] == [("d3",)]


def test_candidate_colorings_drop_repeats(scenario, monkeypatch):
    div = scenario.divisor
    once = candidate_colorings(div)
    fan = PolyhedralDivisor.linearity_fan
    monkeypatch.setattr(PolyhedralDivisor, "linearity_fan",
                        lambda self, y=None: fan(self, y) * 2)
    assert candidate_colorings(div) == once
