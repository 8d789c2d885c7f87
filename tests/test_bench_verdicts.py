"""The benchmark's verify passes, rebuilt from their pass specs in
``perfbench/workloads.json``, give the verdicts of ``perfbench/goldens.json``.

The benchmark refuses a run whose verdict differs from its golden as an
incorrect output; this test fails on such a change first.  It only reads
the files under ``perfbench``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ghz import load_builtin, serialize_scenario
from ghz.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN_KEYS = {"ok", "violations", "notes", "trust_markers"}


def _read(name):
    return json.loads((BENCH / name).read_text(encoding="utf-8"))


WORKLOADS = _read("workloads.json")["workloads"]
VERIFY = sorted(name for name, w in WORKLOADS.items()
                if w["pass"]["kind"] == "verify")


def test_the_bench_has_both_verify_passes():
    assert VERIFY == ["verify-lambda", "verify-prime"]


@pytest.mark.parametrize("workload", VERIFY)
def test_verify_pass_gives_the_bench_golden(workload, tmp_path):
    spec = WORKLOADS[workload]["pass"]
    scenario = tmp_path / f"{workload}-scenario.json"
    if "example" in spec:
        # the builtin with the pass's bounds, as perfbench/run.py writes it
        data = serialize_scenario(load_builtin(spec["example"]))
        data["bounds"].update(spec["bounds"])
        scenario.write_text(json.dumps(data, indent=1), encoding="utf-8")
    argv = [str(scenario) if a == "{scenario}" else a for a in spec["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    verdict = json.loads(out.getvalue())
    golden = _read("goldens.json")[workload]
    assert set(golden) == GOLDEN_KEYS
    assert {k: verdict.get(k) for k in GOLDEN_KEYS} == golden
    assert code == (0 if golden["ok"] else 1)
