"""Golden CLI runs: every builtin example under every command, and
``validate`` plus the runs of ``EXPOSED_BY`` on every scenario under
``tests/scenarios``.

That directory holds malformed scenarios, which every command refuses as
a usage error, and valid scenarios (named in ``VALID``) that a command
refuses with witnesses or as a usage error, or that ``--override`` runs
anyway.

Each golden holds a run's stdout (without the elapsed line or the
``elapsed_seconds`` key), its stderr and its exit code, so a change that
is meant to keep the output fixed is checked byte for byte.

Re-record (only when an output is meant to change, and say which):
``PYTHONPATH=src python tests/test_cli_goldens.py --record``
"""

import contextlib
import io
import json
import os
import re
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from ghz.cli import COMMANDS, main
from ghz.scenarios import BUILTIN_EXAMPLES

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "cli_goldens.json"
SCENARIOS = sorted((ROOT / "tests" / "scenarios").glob("*.json"))
VALID = ("a1-y-infinity", "colored-not-vertex", "descent-failure",
         "irrational-y0", "off-lattice-coloring", "outside-domain", "outside-domain-then-t",
         "p1-finite-y-infinity",
         "p1-irrational-y-infinity", "p1-no-coloring", "p1-no-y-infinity",
         "p1-pieces", "refused-generator", "refused-generator-box4",
         "s-lambda-length", "toric-fractional", "v0-not-vertex",
         "vdeg-not-vertex", "weight-cone-image", "y0-at-infinity",
         "zero-coefficient", "zero-lambda", "zero-lambda-box1")

# the runs of each scenario besides validate, as argv with the scenario
# inserted after the command. For a malformed scenario: the command that,
# without the parse-time check, turned it into a verdict or an internal
# failure where validate did not. For a valid one: the runs that once read
# an invalid coloring as valid or failed internally, or that reach a path
# no builtin example reaches (P1 pieces, negative and infinity coefficients
# of D(m), a fractional part at a non-rational point, an element whose lift
# is not a polynomial, also before one whose lift is, a generator whose lift
# is not one, also past the weight box, a generator search
# that hits its weight bound, an operator that moves nothing, also at a box
# with a weight whose kernel the closed form would misread, an operator over
# P1 whose y_infinity is a finite point, an order that does not descend, a
# y0 that is not a rational point, a family with more exponents than
# lambdas under override, an element list whose only element is zero;
# validate alone reaches a y0 at the marked point
# and a degree vertex that is not a vertex).
EXPOSED_BY = {"vertex-length": [["coherent"]],
              "family-e-length": [["coherent"]],
              "family-root-length": [["toric-check"]],
              "family-root-bad": [["toric-check"]],
              "weight-box-string": [["generators"]],
              "lambda-sample-bad": [["classify"]],
              "max-order-negative": [["verify"]],
              "v0-not-vertex": [["roots"]],
              "colored-not-vertex": [["roots"], ["apply", "--override"],
                                     ["verify", "--override"]],
              "descent-failure": [["verify", "--override"],
                                  ["apply", "--override"]],
              "a1-y-infinity": [["roots"], ["colorings"], ["classify"]],
              "weight-cone-image": [["verify", "--override"]],
              "irrational-y0": [["coherent"], ["apply", "--override"],
                                ["verify", "--override"]],
              "off-lattice-coloring": [["verify", "--override"]],
              "outside-domain": [["apply", "--trust-irreducible"]],
              "outside-domain-then-t": [["apply", "--trust-irreducible"]],
              "p1-finite-y-infinity": [["apply"], ["verify"]],
              "p1-no-coloring": [["colorings"], ["classify"]],
              "p1-no-y-infinity": [["colorings"], ["classify"]],
              "p1-irrational-y-infinity": [["colorings"], ["classify"]],
              "p1-pieces": [["eval", "--m=0"], ["eval", "--m=1"],
                            ["piece", "--m=1"], ["piece", "--m=3"],
                            ["toric-check"]],
              "refused-generator": [["generators"], ["verify", "--override"]],
              "refused-generator-box4": [["verify", "--override"]],
              "toric-fractional": [["toric-check"], ["eval", "--m=2"]],
              "s-lambda-length": [["verify", "--override"],
                                  ["apply", "--override"]],
              "zero-coefficient": [["apply"]],
              "zero-lambda": [["verify", "--override"]],
              "zero-lambda-box1": [["verify", "--override"]]}

_TEXT_ELAPSED = re.compile(r"^elapsed: \d+\.\d{3}s\n", re.M)
_JSON_ELAPSED = re.compile(r',\n  "elapsed_seconds": [0-9.e-]+\n}')


def _cases():
    cases = []
    for name in sorted(BUILTIN_EXAMPLES):
        weight = "5" if BUILTIN_EXAMPLES[name]["rank"] == 1 else "1,1"
        for command in COMMANDS:
            if command == "example":
                argv = ["example", name]
            else:
                argv = [command, "--example", name]
            if command in ("eval", "piece"):
                argv.append(f"--m={weight}")
            cases += [argv, argv + ["--json"]]
        cases.append(["apply", "--example", name, "--order", "8",
                      "--override"])
    # a weight outside the dual of the tail cone is a usage error
    for command in ("eval", "piece"):
        cases.append([command, "--example", "char2-ramified", "--m=-1,0"])
    # so are a negative order and a field characteristic that is no prime
    for command in ("apply", "verify"):
        cases.append([command, "--example", "w25-imperfect", "--order", "-1"])
    # and an order on any command but apply, which alone reads it
    cases.append(["verify", "--example", "w25-imperfect", "--order", "3"])
    for field in ("F4", "Fx"):
        cases.append(["validate", "--example", "w25-prime", "--field", field])
    # the paths are relative to the repository root
    for path in SCENARIOS:
        rel = path.relative_to(ROOT).as_posix()
        for command, *flags in [["validate"], *EXPOSED_BY.get(path.stem, [])]:
            cases.append([command, "--scenario", rel, *flags])
    return cases


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = _JSON_ELAPSED.sub("\n}", _TEXT_ELAPSED.sub("", out.getvalue()))
    return {"stdout": stdout, "stderr": err.getvalue(), "code": code}


def _key(argv):
    return " ".join(argv)


@lru_cache(maxsize=None)
def _goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def test_goldens_cover_every_case():
    assert sorted(_goldens()) == sorted(_key(a) for a in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=_key)
def test_cli_golden(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_case(argv) == _goldens()[_key(argv)]


def test_malformed_scenarios_are_one_line_usage_errors():
    runs = [(Path(a[2]).stem, _goldens()[_key(a)])
            for a in _cases() if "--scenario" in a]
    assert len(runs) == len(SCENARIOS) \
        + sum(len(argvs) for argvs in EXPOSED_BY.values())
    assert set(VALID) <= {path.stem for path in SCENARIOS}
    for stem, run in runs:
        # a malformed scenario is a usage error, whatever the command
        assert run["code"] == 2 or stem in VALID
        if run["code"] == 2:
            assert run["stdout"] == ""
            assert run["stderr"].startswith("error: ")
            assert run["stderr"].count("\n") == 1


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    os.chdir(ROOT)
    recorded = {_key(argv): run_case(argv) for argv in _cases()}
    GOLDENS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"recorded {len(recorded)} goldens in {GOLDENS}")
