import json

import pytest

from ghz.cli import run_command
from ghz.scenarios import (ScenarioError, builtin_examples, field_descriptor,
                           load_builtin, parse_field, parse_scenario,
                           serialize_scenario)
from ghz.fields import PrimeField, Rationals
from ghz.polynomials import FractionField


def test_parse_field():
    assert isinstance(parse_field({"kind": "Q"}), Rationals)
    f = parse_field({"kind": "Fp", "p": 3})
    assert isinstance(f, PrimeField) and f.p == 3
    k = parse_field({"kind": "Fp(l)", "p": 2})
    assert isinstance(k, FractionField) and k.char_exponent == 2
    assert isinstance(parse_field("Q"), Rationals)
    assert parse_field("F5").p == 5
    assert parse_field("F2(l)").char_exponent == 2
    with pytest.raises(ScenarioError):
        parse_field({"kind": "R"})


def test_field_descriptor_round_trip():
    for spec in ({"kind": "Q"}, {"kind": "Fp", "p": 5}, {"kind": "Fp(l)", "p": 3}):
        assert field_descriptor(parse_field(spec)) == spec


def test_builtin_examples_load():
    names = sorted(builtin_examples())
    assert names == ["char2-ramified", "toric-demo", "w25-imperfect",
                     "w25-prime"]
    for name in names:
        sc = load_builtin(name)
        assert sc.divisor.validate().ok


def test_round_trip_all_builtins():
    for name in sorted(builtin_examples()):
        sc = load_builtin(name)
        data = serialize_scenario(sc)
        sc2 = parse_scenario(json.dumps(data), name=name,
                             trusted=name == "w25-imperfect")
        assert serialize_scenario(sc2) == data
        assert sc2.family_root == sc.family_root
        assert run_command(sc2, "toric-check", None).to_dict() \
            == run_command(sc, "toric-check", None).to_dict()


def test_parse_errors_are_reported_with_position():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("{\n  \"rank\": }")
    assert "line 2" in str(exc.value)
    with pytest.raises(ScenarioError):
        parse_scenario("[1, 2]")


def test_unknown_example():
    with pytest.raises(ScenarioError):
        load_builtin("nope")


def test_field_override():
    sc = load_builtin("w25-prime", field_override=parse_field("F3"))
    assert isinstance(sc.field, PrimeField) and sc.field.p == 3


def test_support_rays_must_match_tail():
    data = {
        "field": {"kind": "Q"},
        "rank": 1,
        "curve": "A1",
        "tail_rays": [[1]],
        "support": [{"point": "t", "vertices": [["1/2"]], "rays": [["-1"]]}],
    }
    with pytest.raises(ScenarioError):
        parse_scenario(data)
    data["support"][0]["rays"] = [["1"]]
    sc = parse_scenario(data)
    assert sc.divisor.validate().ok


def test_elements_parsed():
    sc = load_builtin("w25-imperfect")
    assert len(sc.elements) == 1
    ((m, f),) = sc.elements
    assert m == (-5,)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["family"].update({"lambda": ["1/0"]}),
     "bad coefficient in lambda: division by zero at position 1"),
    (lambda d: d["family"].update({"lambda": ["0^-1"]}),
     "bad coefficient in lambda: zero to a non-positive power at position 1"),
    (lambda d: d["support"][1].update(point="(t+1)*t/(t-t)"),
     "bad point '(t+1)*t/(t-t)': division by zero at position 7"),
    (lambda d: d["elements"][0].update(coeff="t/(t-t)"),
     "bad coefficient 't/(t-t)': division by zero at position 1"),
], ids=["lambda 1/0", "lambda 0^-1", "point", "coefficient"])
def test_division_by_zero_is_a_scenario_error(edit, message):
    data = json.loads(json.dumps(builtin_examples()["w25-prime"]))
    edit(data)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(data)
    assert str(exc.value) == message
