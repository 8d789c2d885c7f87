"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py '<job JSON>'

The job says which verdicts to issue and in which mode:
- ``setup``: import ghz and parse the inputs, then stop;
- ``pass``: issue the verdicts one after another, untraced;
- ``trace``: the same with every wrap-table entry installed.
The last line of standard output is one JSON object with the monotonic
instant the set-up finished, the host calibration taken then, during and
after the pass, the pass's wall and CPU time, its peak RSS and the raw
verdicts; the parent compares them with the goldens.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

from harness import counter_diff, probe_accounting
from spans import Recorder, aggregate, install


CALIB_ITERATIONS = 16000  # one calibration, about 0.1 s at reference speed
CHUNK_ITERATIONS = 1000   # one in-pass sample, about 6 ms
SAMPLE_EVERY_S = 0.2      # in-pass sampling interval (about 3% of the pass)


def calibrate(iterations: int = CALIB_ITERATIONS) -> float:
    """Seconds this host takes for a fixed piece of pure-Python work of the
    kind ghz does (Fraction arithmetic, tuples, dicts, a sort).

    A shared host's speed can drift by up to 2x within seconds; the time of
    this loop drifts with it, so the parent divides each measured time by
    the calibration taken next to it.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    counts = {}
    for i in range(1, iterations + 1):
        q = Fraction(i % 97 - 48, i % 13 + 1)
        acc += q * q
        key = (i % 61, i % 17)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the host's speed all through a pass.

    Every SAMPLE_EVERY_S seconds a SIGALRM handler times one small
    calibration chunk.  The timer runs on wall time, so the mean chunk
    speed is the pass's time-weighted host speed; ``calibration()`` turns
    it into the time of one full calibration at that speed.  Two
    calibrations at the ends of a multi-second pass miss changes of speed
    inside it.  The chunks' own wall and CPU time are kept, so the caller
    can take them out of the pass.
    """

    def __init__(self):
        self.walls = []
        self.cpus = []

    def _tick(self, signum, frame):
        c0 = time.process_time()
        self.walls.append(calibrate(CHUNK_ITERATIONS))
        self.cpus.append(time.process_time() - c0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibration(self):
        """Seconds of one full calibration at the pass's mean speed, or
        None if the pass was too short to take a sample."""
        if not self.walls:
            return None
        speed = sum(1.0 / w for w in self.walls) / len(self.walls)
        return CALIB_ITERATIONS / CHUNK_ITERATIONS / speed


def _parse_inputs(job):
    import ghz.scenarios

    for v in job["verdicts"]:
        if "scenario" in v:
            with open(v["scenario"], "r", encoding="utf-8") as fh:
                ghz.scenarios.parse_scenario(fh.read(), name=v["scenario"])
        elif "example" in v:
            ghz.scenarios.load_builtin(v["example"])


def _verify(v):
    import ghz.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ghz.cli.main(v["argv"])
    verdict = json.loads(buf.getvalue())
    verdict["exit_code"] = code
    return verdict


def _probe(v, rec, names, missing):
    """One equivalence_probe verdict, with its draw accounting unless one of
    the three counted functions is missing from the program."""
    import ghz.classifier

    before = rec.counters()
    rep = ghz.classifier.equivalence_probe(v["trials"], v["p"], v["curve"],
                                           v["rank"], m_bound=v["m_bound"],
                                           seed=v["seed"])
    out = {"report": rep.to_dict(), "accounting": None}
    if not any(n in missing for n in names.values()):
        out["accounting"] = probe_accounting(
            counter_diff(rec.counters(), before), names)
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    # calibrations on both sides of the import bracket the set-up; the
    # parent takes the first one out of the set-up time
    calib_start = calibrate()
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import ghz  # noqa: F401  (the import is part of set-up)

    _parse_inputs(job)
    ready = time.monotonic()
    result = {"ready": ready, "calib_start_s": calib_start,
              "calib_ready_s": calibrate()}
    if job["mode"] == "setup":
        print(json.dumps(result))
        return 0

    spec = json.loads((Path(__file__).resolve().parent / "workloads.json")
                      .read_text(encoding="utf-8"))
    probe = job["kind"] == "probe"
    acct_names = spec["probe_accounting"]
    wraps = spec["wraps"]
    if job["mode"] == "pass":
        # untraced: counters only, and only on the three probe functions
        wraps = [dict(w, kind="count") for w in wraps
                 if probe and w["name"] in acct_names.values()]
    rec = Recorder([w["name"] for w in wraps]) if wraps else None
    missing = install(wraps, rec) if wraps else {}

    verdicts = []
    # the traced pass is not sampled: the chunks would land in its spans
    sampler = SpeedSampler()
    with sampler if job["mode"] == "pass" else contextlib.nullcontext():
        t0, c0 = time.perf_counter(), time.process_time()
        for v in job["verdicts"]:
            try:
                verdicts.append(_probe(v, rec, acct_names, missing) if probe
                                else _verify(v))
            except Exception as exc:  # a raised verdict is a failed verdict
                verdicts.append({"error": f"{type(exc).__name__}: {exc}"})
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    result["wall_s"] = wall - sum(sampler.walls)
    result["cpu_s"] = cpu - sum(sampler.cpus)
    result["calib_pass_s"] = sampler.calibration()
    result["calib_samples"] = len(sampler.walls)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    result["calib_end_s"] = calibrate()
    result["verdicts"] = verdicts
    result["missing"] = missing
    if job["mode"] == "trace":
        layers = [w["layer"] for w in wraps]
        roots = [r for r in job["roots"] if r in rec.names]
        result["aggregate"] = aggregate(rec.names, layers, *rec.spans(),
                                        roots=roots)
        result["counters"] = rec.counters()
        result["spans"] = len(rec.nid)
        rec.write(job["spans_out"], job["pass_id"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
