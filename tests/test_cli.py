import json

import pytest

from ghz import cli, scenarios
from ghz.cli import main
from ghz.engine import EngineError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_example_listing(capsys):
    code, out, _ = run(capsys, "example")
    assert code == 0
    assert "w25-imperfect" in out and "toric-demo" in out


def test_coherent_positive(capsys):
    code, out, _ = run(capsys, "coherent", "--example", "w25-imperfect")
    assert code == 0
    assert "coherent" in out


def test_coherent_negative_with_witness(capsys):
    code, out, _ = run(capsys, "coherent", "--example", "w25-prime")
    assert code == 1
    assert "(v)" in out and "4/5" in out


def test_json_and_text_agree(capsys):
    code, out, _ = run(capsys, "coherent", "--example", "w25-prime", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any("4/5" in v for v in payload["violations"])
    assert "elapsed_seconds" in payload


def test_apply(capsys):
    code, out, _ = run(capsys, "apply", "--example", "w25-imperfect")
    assert code == 0
    assert "order 8" in out and "(t)*chi^(3,)" in out


def test_eval_and_piece(capsys):
    code, out, _ = run(capsys, "eval", "--example", "w25-imperfect",
                       "--m", "5")
    assert code == 0 and "1*[t]" in out
    code, out, _ = run(capsys, "piece", "--example", "w25-imperfect",
                       "--m", "5")
    assert code == 0 and "t^-1" in out


def test_eval_requires_weight(capsys):
    code, _, err = run(capsys, "eval", "--example", "w25-imperfect")
    assert code == 2 and "--m" in err
    code, _, err = run(capsys, "eval", "--example", "w25-imperfect",
                       "--m", "1,2")
    assert code == 2 and "rank" in err
    # a weight outside the weight cone is bad input, not an internal failure
    for command in ("eval", "piece"):
        code, out, err = run(capsys, command, "--example", "char2-ramified",
                             "--m=-1,0")
        assert code == 2 and out == ""
        assert err == ("error: weight (-1, 0) lies outside the dual of the "
                       "tail cone\n")


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--example", "char2-ramified")
    assert code == 0
    assert "horizontal" in out and "kernel" in out


@pytest.mark.parametrize("command", ["verify", "apply"])
def test_incoherent_family_is_a_refusal(capsys, command):
    """The operator of an incoherent family is refused: a negative verdict
    with the failed condition as its witness, not an internal failure."""
    code, out, err = run(capsys, command, "--example", "w25-prime")
    assert code == 1 and err == ""
    assert "violation: family is not coherent" in out
    assert "(v): at [t + 1] vertex (1/5): 4/5 < 1" in out
    code, out, _ = run(capsys, command, "--example", "w25-prime", "--json")
    assert code == 1
    assert json.loads(out)["violations"] == [
        "family is not coherent", "(v): at [t + 1] vertex (1/5): 4/5 < 1"]


@pytest.mark.parametrize("example, witness", [
    ("char2-ramified", "(1, 0) is not a root of the cone: pairings with "
                       "its rays: (0, 1) -> 0, (1, 0) -> 1"),
    ("w25-imperfect", "(1,) is not a root of the cone: pairings with its "
                      "rays: none"),
    ("w25-prime", "(1,) is not a root of the cone: pairings with its "
                  "rays: none"),
])
def test_toric_check_non_root_is_a_refusal(capsys, example, witness):
    code, out, err = run(capsys, "toric-check", "--example", example,
                         "--json")
    assert code == 1 and err == ""
    assert witness in json.loads(out)["violations"]


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--example", "w25-imperfect")
    assert code == 0
    assert "e=(1,) s=(2,)" in out
    code, out, _ = run(capsys, "classify", "--example", "w25-prime")
    assert code == 1


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "--example", "w25-imperfect")
    assert code == 0
    assert "d=5" in out and "(1, 5)" in out


def test_toric_check(capsys):
    code, out, _ = run(capsys, "toric-check", "--example", "toric-demo")
    assert code == 0
    assert "(1, 0)" in out


def test_scenario_file(tmp_path, capsys):
    data = {
        "field": {"kind": "Q"},
        "rank": 1,
        "curve": "A1",
        "tail_rays": [[1]],
        "support": [{"point": "t", "vertices": [["1/2"]]}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--scenario", str(path))
    assert code == 0
    path.write_text("{ not json")
    code, _, err = run(capsys, "validate", "--scenario", str(path))
    assert code == 2 and "syntax error" in err


def test_validate_reports_each_divisor_violation_once(tmp_path, capsys):
    # deg D = {-1} lies outside the tail cone; the coloring is checked too
    data = {"field": {"kind": "Fp", "p": 2}, "rank": 1, "curve": "P1",
            "tail_rays": [["1"]],
            "support": [{"point": "t", "vertices": [["-1"]]},
                        {"point": "infinity", "vertices": [["0"]]}],
            "coloring": {"y0": "t", "y_infinity": "infinity",
                         "vertices": {"t": ["-1"]}}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--scenario", str(path))
    assert code == 1
    assert out.splitlines()[:2] == [
        "validate: FAILED",
        "  violation: deg D is not contained in the tail cone"]
    assert out.count("violation:") == 1


@pytest.mark.parametrize("flags", [[], ["--override"]])
@pytest.mark.parametrize("command", ["apply", "verify"])
def test_operator_over_p1_without_y_infinity_is_a_usage_error(
        tmp_path, capsys, command, flags):
    """Over P1 the operator needs y_infinity to be the infinite point; a
    family whose coloring marks none is a usage error, also under
    --override, where the engine would read the missing point."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "field": {"kind": "Fp", "p": 2}, "rank": 1, "curve": "P1",
        "tail_rays": [["1"]],
        "support": [{"point": "t", "vertices": [["1"]]},
                    {"point": "t + 1", "vertices": [["-1"]]}],
        "coloring": {"y0": "t", "vertices": {"t": ["1"], "t + 1": ["-1"]}},
        "family": {"e": [1], "s": [0], "lambda": ["1"]}}))
    code, out, err = run(capsys, command, "--scenario", str(path), *flags)
    assert (code, out) == (2, "")
    assert err == ("error: the operator over P1 needs y_infinity to be the "
                   "infinite point\n")


def test_missing_input(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2 and "--scenario" in err


def test_bad_command(capsys):
    code, _, _ = run(capsys, "frobnicate", "--example", "w25-prime")
    assert code == 2


def test_trust_marker_propagates(capsys):
    code, out, _ = run(capsys, "coherent", "--example", "w25-imperfect",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert any("t^2 + l" in t for t in payload["trust_markers"])


def test_trust_irreducible_reaches_builtin_examples(capsys, monkeypatch):
    # the w25-imperfect data under a name whose default policy is strict
    monkeypatch.setitem(scenarios.BUILTIN_EXAMPLES, "w25-strict",
                        scenarios.BUILTIN_EXAMPLES["w25-imperfect"])
    code, _, err = run(capsys, "coherent", "--example", "w25-strict")
    assert code == 2 and "undecidable" in err
    code, out, _ = run(capsys, "coherent", "--example", "w25-strict",
                       "--trust-irreducible", "--json")
    assert code == 0
    assert any("t^2 + l" in t for t in json.loads(out)["trust_markers"])
    # the example's own default still holds without the flag
    code, out, _ = run(capsys, "coherent", "--example", "w25-imperfect")
    assert code == 0


@pytest.mark.parametrize("exc", [EngineError("descent failure"),
                                 RuntimeError("boom")])
def test_internal_failure_exit_code(capsys, monkeypatch, exc):
    def failing(sc, command, args):
        raise exc

    monkeypatch.setattr(cli, "run_command", failing)
    code, out, err = run(capsys, "coherent", "--example", "w25-prime")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and str(exc) in err
    # only an unexpected exception brings its traceback
    assert ("Traceback" in err) == isinstance(exc, RuntimeError)


@pytest.mark.parametrize("argv, message", [
    (("apply", "--example", "w25-imperfect", "--order", "-1"),
     "series order must be positive"),
    (("verify", "--example", "w25-imperfect", "--order", "-1"),
     "series order must be positive"),
    (("validate", "--example", "w25-prime", "--field", "F4"),
     "4 is not prime"),
    (("validate", "--example", "w25-prime", "--field", "F4(l)"),
     "4 is not prime"),
    (("validate", "--example", "w25-prime", "--field", "Fx"),
     "field characteristic 'x' is not a positive integer"),
    # only apply truncates, so an order anywhere else is refused, not ignored
    *[((command, "--example", "w25-imperfect", "--order", "3"),
       "--order is read by apply only")
      for command in cli.COMMANDS if command != "apply"],
])
def test_bad_numeric_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("kind", ["Fp", "Fp(l)"])
@pytest.mark.parametrize("p, message", [
    (4, "4 is not prime"),
    ("x", "field characteristic 'x' is not a positive integer"),
    (-2, "field characteristic -2 is not a positive integer"),
])
def test_bad_scenario_characteristic_is_a_usage_error(tmp_path, capsys, kind,
                                                      p, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"field": {"kind": kind, "p": p}, "rank": 1,
                                "support": []}))
    code, out, err = run(capsys, "validate", "--scenario", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    # the same digits as a string are accepted as before
    path.write_text(json.dumps({"field": {"kind": kind, "p": "3"}, "rank": 1,
                                "support": []}))
    assert run(capsys, "validate", "--scenario", str(path))[0] == 0


@pytest.mark.parametrize("name, reason", [
    ("missing.json", "No such file or directory"),
    ("", "Is a directory"),
], ids=["missing", "directory"])
def test_unreadable_scenario_is_a_usage_error(tmp_path, capsys, name, reason):
    path = str(tmp_path / name)
    code, out, err = run(capsys, "validate", "--scenario", path)
    assert (code, out, err) == (
        2, "", f"error: cannot read scenario {path}: {reason}\n")


def test_order_zero_is_still_accepted(capsys):
    code, out, _ = run(capsys, "apply", "--example", "w25-imperfect",
                       "--order", "0")
    assert code == 0 and "order 0 of" in out and "order 1 of" not in out


def reference_parser():
    """The argparse parser that main used before parse_args: the oracle for
    the rows below.  argparse is imported here only, never by ghz."""
    import argparse

    parser = argparse.ArgumentParser(prog="ghz")
    parser.add_argument("command", choices=cli.COMMANDS)
    parser.add_argument("name", nargs="?")
    parser.add_argument("--scenario")
    parser.add_argument("--example")
    parser.add_argument("--field")
    parser.add_argument("--m")
    parser.add_argument("--order", type=int)
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--trust-irreducible", action="store_true")
    parser.add_argument("--override", action="store_true")
    return parser


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["example"],
    ["example", "w25-prime"],
    ["example", "w25-prime", "--field", "F3(l)", "--json"],
    ["verify", "--example", "w25-imperfect"],
    ["verify", "--example=w25-imperfect", "--json"],
    ["--json", "verify", "--example", "w25-imperfect"],
    ["apply", "--example", "w25-prime", "--example", "w25-imperfect"],
    ["apply", "--example", "w25-imperfect", "--order", "0"],
    ["apply", "--example", "w25-imperfect", "--order", "-1"],
    ["apply", "--order=3", "--example=toric-demo", "--override",
     "--trust-irreducible", "--json"],
    ["eval", "--example", "char2-ramified", "--m=-1,0"],
    ["piece", "--m", "1,2", "--m", "5", "--example", "w25-imperfect"],
    ["validate", "--scenario", "s.json", "--field=Q", "--json", "--json"],
    ["validate", "--scenario=a=b.json", "--m="],
])
def test_parse_args_matches_argparse(argv):
    assert vars(cli.parse_args(argv)) == vars(reference_parser().parse_args(
        argv))


@pytest.mark.parametrize("argv, message", [
    (["frobnicate", "--example", "w25-prime"], "unknown command 'frobnicate'"),
    ([], "missing command"),
    (["--json"], "missing command"),
    (["verify", "--example", "w25-prime", "--frobnicate"],
     "unknown option '--frobnicate'"),
    (["verify", "-x", "--example", "w25-prime"], "unknown option '-x'"),
    (["verify", "--example"], "--example needs a value"),
    (["verify", "--example", "--json"], "--example needs a value"),
    (["verify", "--example", "w25-prime", "--json=1"],
     "--json takes no value"),
    (["apply", "--example", "w25-imperfect", "--order", "x"],
     "--order needs an integer, not 'x'"),
    (["example", "w25-prime", "w25-imperfect"],
     "unexpected argument 'w25-imperfect'"),
])
def test_malformed_argv_is_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        reference_parser().parse_args(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"],
                                  ["verify", "--example", "x", "--help"]])
def test_help_prints_the_usage_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == cli.USAGE + "\n" and out.startswith("usage: ghz ")


@pytest.mark.parametrize("argv, attr, value", [
    # argparse read "-1,0" as an option, so a negative weight needed "="
    (["eval", "--m", "-1,0"], "m", "-1,0"),
    # argparse took no example name after an option
    (["example", "--json", "w25-prime"], "name", "w25-prime"),
])
def test_parse_args_takes_what_argparse_refused(capsys, argv, attr, value):
    with pytest.raises(SystemExit):
        reference_parser().parse_args(argv)
    assert getattr(cli.parse_args(argv), attr) == value


def test_option_prefixes_are_unknown_options(capsys):
    argv = ["coherent", "--ex", "w25-imperfect"]
    assert reference_parser().parse_args(argv).example == "w25-imperfect"
    assert run(capsys, *argv) == (2, "", "error: unknown option '--ex'\n")


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["ghz", "example"])
    assert main() == 0
    assert "w25-imperfect" in capsys.readouterr().out
