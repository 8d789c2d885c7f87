"""The ghz benchmark: time to verdict on four workloads.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload verify-lambda --seed 1 \
        --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26 --trace 0

Load is a closed loop with one client: each pass is a fresh child
interpreter (``child.py``) that issues the workload's verdicts one after
another; one pass runs at a time.  Passes repeat until ``--seconds`` is
used up, at most ``MAX_PASSES`` times.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics of one traced pass, plus
``trace.overhead_ratio`` against untraced passes of the same inputs.
Earlier lines give the run environment, the probe draw accounting and
``failed_ratio``.

End-to-end times are in reference seconds: each measured time is multiplied
by CALIB_REF_S over the time its own child took for a fixed calibration loop
(``child.calibrate``).  Set-up is scaled by the mean of calibrations run
right before and right after it; a pass by small calibration chunks timed all through the pass
(``child.SpeedSampler``), whose own time is taken out of the pass.  A shared
2-vCPU Xeon host changed speed by up to 2x within seconds and the
calibration changes with it, so the product stays put while a change to ghz
moves it in full.  There, in-pass sampling cut the spread of the passes of
one run from up to 1.7x (raw) to about 1.07x.  The measured (raw) times are
printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from harness import (accounting_problems, layer_metrics, probe_problems,
                     tail, verify_mismatches)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5      # set-up-only interpreters before the passes
MIN_PASSES = 3         # untraced passes even if --seconds is shorter
MAX_PASSES = 10        # so wall_tail_s is always the maximum of the passes
MIN_TRACE_BASELINE = 2  # untraced passes beside the traced one
DEADLINE_S = 165       # a run never outlives this, whatever --seconds says
CALIB_REF_S = 0.1      # calibration time of the reference host speed


def _environment():
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((ROOT / "src" / "ghz").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_commit": commit, "src_ghz_lines": lines,
            "loadavg_before": os.getloadavg()}


def _probe_seed(run_seed, pass_index, p, rank):
    return random.Random(f"{run_seed}/{pass_index}/{p}/{rank}").randrange(
        2 ** 31)


def _verdicts(pass_spec, run_seed, pass_index, scenario_path):
    """The verdicts of one pass; the same arguments give the same inputs."""
    if pass_spec["kind"] == "verify":
        argv = [scenario_path if a == "{scenario}" else a
                for a in pass_spec["argv"]]
        v = {"argv": argv}
        if "example" in pass_spec:
            v["scenario"] = scenario_path
        else:
            v["example"] = argv[argv.index("--example") + 1]
        return [v]
    out = []
    for p in pass_spec["ps"]:
        for cfg in pass_spec["ranks"]:
            seed = cfg["seed"] if isinstance(cfg["seed"], int) else \
                _probe_seed(run_seed, pass_index, p, cfg["rank"])
            out.append({"curve": pass_spec["curve"], "p": p,
                        "rank": cfg["rank"], "trials": cfg["trials"],
                        "m_bound": pass_spec["m_bound"], "seed": seed})
    return out


def _write_scenario(pass_spec, workload):
    """Scenario file for a verify workload built from a builtin example."""
    sys.path.insert(0, str(ROOT / "src"))
    from ghz import load_builtin, serialize_scenario

    data = serialize_scenario(load_builtin(pass_spec["example"]))
    data["bounds"].update(pass_spec["bounds"])
    path = OUT / f"{workload}-scenario.json"
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return str(path)


class Runner:
    """Starts the child interpreters of one run and keeps its tallies."""

    def __init__(self, workload, spec, goldens, deadline):
        self.workload = workload
        self.goldens = goldens
        self.deadline = deadline
        self.kind = spec["workloads"][workload]["pass"]["kind"]
        self.setup = []        # (raw set-up seconds, calibration around it)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def child(self, mode, verdicts, **extra):
        """Run one child interpreter; its result dict, or None."""
        job = {"root": str(ROOT), "mode": mode, "kind": self.kind,
               "verdicts": verdicts, **extra}
        # one hash seed, so every pass iterates str-keyed sets alike
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} child timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"{mode} child exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            return None
        result = json.loads(lines[-1])
        self.setup.append((result["ready"] - spawned
                           - result["calib_start_s"],
                           (result["calib_start_s"]
                            + result["calib_ready_s"]) / 2))
        return result

    def check(self, verdicts, result):
        """Count the pass's verdicts and those that failed."""
        self.attempted += len(verdicts)
        if result is None:
            self.failed += len(verdicts)
            return
        for v, got in zip(verdicts, result["verdicts"]):
            problems = self._verdict_problems(v, got)
            if problems:
                self.failed += 1
                self.problems.append(f"{_label(v)}: {'; '.join(problems)}")

    def _verdict_problems(self, v, got):
        if "error" in got:
            return [got["error"]]
        if self.kind == "verify":
            bad = verify_mismatches(self.goldens[self.workload], got)
            return [f"{k} differs from the golden" for k in bad]
        problems = probe_problems(got["report"], v["trials"])
        if got["accounting"] is not None:
            problems += accounting_problems(got["accounting"], v["trials"])
        return problems


def _scale(result):
    """Factor from a pass child's measured seconds to reference seconds: the
    in-pass calibration if the pass took samples, else the mean of the two
    calibrations at its ends."""
    calib = result.get("calib_pass_s") or \
        (result["calib_ready_s"] + result["calib_end_s"]) / 2
    return CALIB_REF_S / calib


def _label(v):
    if "argv" in v:
        return " ".join(v["argv"])
    return f"probe {v['curve']} p={v['p']} rank={v['rank']} seed={v['seed']}"


def _passes(runner, make_verdicts, seconds, minimum):
    """Untraced passes, at least ``minimum`` and at most MAX_PASSES, while
    the next one is expected to end within ``seconds``."""
    results, spent = [], []
    begin = time.monotonic()
    while True:
        verdicts = make_verdicts(len(results))
        t = time.monotonic()
        result = runner.child("pass", verdicts)
        spent.append(time.monotonic() - t)
        runner.check(verdicts, result)
        if result is None:
            break
        results.append((verdicts, result))
        now, next_pass = time.monotonic(), median(spent)
        if (len(results) >= MAX_PASSES or now + next_pass > runner.deadline
                or (len(results) >= minimum
                    and now - begin + next_pass > seconds)):
            break
    return results


def _accounting_lines(results):
    lines = []
    for verdicts, result in results:
        for v, got in zip(verdicts, result["verdicts"]):
            acct = got.get("accounting")
            counts = "unmeasured: a counted function is missing" \
                if acct is None else " ".join(f"{k}={n}"
                                              for k, n in acct.items())
            lines.append(f"  {_label(v)} trials={v['trials']} {counts}")
    return lines


def run_workload(workload, seed, seconds, trace, spec, bench, goldens):
    """One run of one workload; prints its details and returns
    (correct, attempted, failed, metrics)."""
    start = time.monotonic()
    env = _environment()
    OUT.mkdir(exist_ok=True)
    pass_spec = spec["workloads"][workload]["pass"]
    scenario = _write_scenario(pass_spec, workload) \
        if "example" in pass_spec else None
    runner = Runner(workload, spec, goldens, start + DEADLINE_S)

    def make(i):
        return _verdicts(pass_spec, seed, i, scenario)

    for _ in range(SETUP_SAMPLES):
        runner.child("setup", make(0))

    traced = None
    if trace:
        attribution = spec["attribution"].get(workload, {})
        roots = [attribution["root"]] if attribution else []
        t = time.monotonic()
        traced = runner.child("trace", make(0), roots=roots, pass_id=0,
                              spans_out=str(OUT / f"spans-{workload}.bin"))
        runner.check(make(0), traced)
        remaining = seconds - (time.monotonic() - t)
        results = _passes(runner, lambda i: make(0), remaining,
                          MIN_TRACE_BASELINE)
    else:
        results = _passes(runner, make, seconds, MIN_PASSES)

    env["loadavg_after"] = os.getloadavg()
    print("environment " + json.dumps(env))
    print(f"workload {workload} seed {seed} trace {trace}: "
          f"{len(results)} untraced passes, {len(runner.setup)} set-ups")
    if runner.kind == "probe":
        print("probe draw accounting (per configuration and pass):")
        print("\n".join(_accounting_lines(results + ([(make(0), traced)]
                                                     if traced else []))))
    for problem in runner.problems:
        print(f"problem: {problem}")
    failed_ratio = runner.failed / max(1, runner.attempted)

    metrics = {}
    walls = [r["wall_s"] * _scale(r) for _, r in results]
    if walls:
        print("passes (raw s / in-pass calibration s from n samples): "
              + " ".join(f"{r['wall_s']:.3f}/{r['calib_pass_s'] or 0:.3f}"
                         f"[{r['calib_samples']}]" for _, r in results))
        raw_wall = median(r["wall_s"] for _, r in results)
        raw_setup = median(raw for raw, _ in runner.setup)
        print(f"raw medians: wall_s {raw_wall:.4f} s, setup_s "
              f"{raw_setup:.4f} s; reference calibration {CALIB_REF_S} s")
    if trace and traced is not None and walls:
        per_layer = bench["per_layer"]
        values = layer_metrics(per_layer, spec["wraps"], traced,
                               spec["probe_accounting"],
                               traced["wall_s"] * _scale(traced)
                               / median(walls))
        for m in per_layer:
            value, reason = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            if reason:
                metrics[m["name"]]["reason"] = reason
        _print_attribution(spec, workload, traced)
    elif not trace and walls:
        tail_value, pct, beyond = tail(walls)
        print(f"wall_tail_s is the p{pct:.1f} of {len(walls)} passes "
              f"({beyond} beyond it)")
        values = {"wall_s": median(walls), "wall_tail_s": tail_value,
                  "cpu_s": median(r["cpu_s"] * _scale(r) for _, r in results),
                  "setup_s": median(raw * CALIB_REF_S / calib
                                    for raw, calib in runner.setup),
                  "peak_rss_mb": median(r["peak_rss_mb"] for _, r in results)}
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    print(f"{workload} metrics:")
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}"
              + (f" ({m['reason']})" if "reason" in m else ""))
    print(f"  failed_ratio {failed_ratio} ratio "
          f"({runner.failed} of {runner.attempted} verdicts)")
    print(f"run took {time.monotonic() - start:.1f} s")
    ok = bool(walls) and runner.failed == 0 and not runner.problems
    attempted = max(1, runner.attempted)
    failed = runner.failed if runner.attempted else 1
    return ok, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of workloads.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ghz" / "__init__.py").is_file():
        print(f"error: no ghz sources under {ROOT / 'src' / 'ghz'}",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    names = list(spec["workloads"]) if args.workload == "all" \
        else [args.workload]
    if any(n not in spec["workloads"] for n in names):
        print(f"error: unknown workload {args.workload!r}; known: all, "
              + ", ".join(spec["workloads"]), file=sys.stderr)
        return 2

    runs = {n: run_workload(n, args.seed, args.seconds, args.trace, spec,
                            bench, goldens) for n in names}
    if len(names) == 1:
        ok, attempted, failed, metrics = runs[names[0]]
    else:
        ok = all(r[0] for r in runs.values())
        attempted = sum(r[1] for r in runs.values())
        failed = sum(r[2] for r in runs.values())
        metrics = {f"{n}/{k}": m for n, r in runs.items()
                   for k, m in r[3].items()}
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_attribution(spec, workload, traced):
    """Say whether the traced pass agrees with the profile's attribution."""
    claim = spec["attribution"].get(workload)
    if not claim:
        return
    agg = traced["aggregate"]
    root = claim["root"]
    if root in traced["missing"]:
        print(f"attribution: {traced['missing'][root]}")
        return
    if "layers" in claim:
        total = sum(agg["self_s"][layer] for layer in claim["layers"])
        inside = sum(agg["under"][root][layer] for layer in claim["layers"])
        share = inside / total if total else 0.0
        verdict = "holds" if share > 0.5 else "does NOT hold"
        print(f"attribution: {share:.1%} of {'+'.join(claim['layers'])} "
              f"self time is under {root}; '{claim['claim']}' {verdict}")
    if "largest_child" in claim:
        share = agg["incl"][root] / traced["wall_s"]
        kids = agg["children"][root]
        largest = max(kids, key=kids.get) if kids else None
        verdict = "holds" if share > 0.5 and largest == \
            claim["largest_child"] else "does NOT hold"
        print(f"attribution: {share:.1%} of the traced pass is under {root}; "
              f"largest child {largest} "
              f"({kids.get(largest, 0.0):.3f} s); '{claim['claim']}' "
              f"{verdict}")
    print(f"traced pass {traced['wall_s']:.3f} s (raw), {traced['spans']} "
          "spans")


if __name__ == "__main__":
    sys.exit(main())
