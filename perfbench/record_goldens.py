"""Record the golden verdicts of the verify workloads into goldens.json.

Usage (from the root of the repository): python3 perfbench/record_goldens.py

Run it only when a verdict is meant to change; the benchmark compares every
verify pass with these goldens (probe verdicts are checked by rule instead).
"""

from __future__ import annotations

import json
import sys
import time

from harness import GOLDEN_KEYS
from run import DEADLINE_S, HERE, OUT, Runner, _verdicts, _write_scenario


def main() -> int:
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    goldens = {}
    for name, workload in spec["workloads"].items():
        pass_spec = workload["pass"]
        if pass_spec["kind"] != "verify":
            continue
        scenario = _write_scenario(pass_spec, name) \
            if "example" in pass_spec else None
        runner = Runner(name, spec, {}, time.monotonic() + DEADLINE_S)
        result = runner.child("pass", _verdicts(pass_spec, 0, 0, scenario))
        if result is None or "error" in result["verdicts"][0]:
            print(f"{name}: {runner.problems or result['verdicts'][0]}",
                  file=sys.stderr)
            return 1
        goldens[name] = {k: result["verdicts"][0][k] for k in GOLDEN_KEYS}
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=2) + "\n",
                                       encoding="utf-8")
    print(json.dumps(goldens, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
