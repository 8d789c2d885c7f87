"""Pure helpers of the benchmark: statistics, golden comparison, probe
accounting and the per-layer metric table.  Nothing here runs a workload."""

from __future__ import annotations

GOLDEN_KEYS = ("ok", "violations", "notes", "trust_markers")


def tail(values, beyond: int = 10):
    """The highest order statistic with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond it).  With ``beyond`` samples
    or fewer no such value exists; the maximum is returned with 0 beyond, so
    the stated count shows that the tail is only the largest sample.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, 0
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, beyond


def verify_mismatches(golden: dict, verdict: dict):
    """Keys of the golden verdict that the program's ``--json`` output does
    not reproduce.  Keys outside the golden, such as ``elapsed_seconds`` or
    a later ``stats``, are ignored."""
    return [k for k in golden if verdict.get(k) != golden[k]]


def probe_accounting(counts: dict, names: dict) -> dict:
    """Draw accounting of one probe configuration from wrapper counters.

    ``counts`` maps a wrapped name to its calls/nones/raised deltas;
    ``names`` maps draws/vertex/floor to wrapped names.  A ``None`` draw is
    rejected, a ClassifierError from either check skips the instance, and a
    floor check that returns has checked it.
    """
    draws = counts[names["draws"]]
    vertex = counts[names["vertex"]]
    floor = counts[names["floor"]]
    return {"draws": draws["calls"],
            "rejected": draws["nones"],
            "skipped": vertex["raised"] + floor["raised"],
            "checked": floor["calls"] - floor["raised"]}


def accounting_problems(acct: dict, trials: int):
    problems = []
    total = acct["rejected"] + acct["skipped"] + acct["checked"]
    if acct["draws"] != total:
        problems.append(f"draws {acct['draws']} != rejected + skipped + "
                        f"checked = {total}")
    if acct["checked"] != trials:
        problems.append(f"checked {acct['checked']} != trials {trials}")
    return problems


def probe_problems(report: dict, trials: int):
    """Why a probe verdict is not the expected agreement, or []."""
    problems = []
    if not report.get("ok"):
        problems.append(f"probe not ok: {report.get('violations', [])[:2]}")
    expected = f"{trials} instances agreed"
    if expected not in report.get("notes", []):
        problems.append(f"notes {report.get('notes')} lack {expected!r}")
    return problems


def counter_diff(after: dict, before: dict) -> dict:
    return {name: {k: after[name][k] - before[name][k] for k in after[name]}
            for name in after}


def layer_metrics(per_layer, wraps, traced, accounting_names, overhead_ratio):
    """Values of the BENCHMARK.json per-layer metrics for one traced pass.

    ``traced`` is the traced child's result (aggregate, counters, missing).
    Returns {metric: (value or None, reason or None)}.  A metric whose
    wrapped function is missing from the program is None with the reason
    "unmeasured: <target> not found", never 0.
    """
    agg, counters, missing = (traced["aggregate"], traced["counters"],
                              traced["missing"])
    wrapped = {w["name"] for w in wraps}
    gone = [missing[n] for n in accounting_names.values() if n in missing]
    accounting = None if gone else probe_accounting(counters,
                                                    accounting_names)
    out = {}
    for metric in per_layer:
        name = metric["name"]
        base, _, stat = name.rpartition(".")
        if name == "trace.overhead_ratio":
            out[name] = (overhead_ratio, None)
        elif name.startswith("classifier.probe."):
            if accounting is None:
                out[name] = (None, gone[0])
            elif stat == "accept_ratio":
                # 0 when nothing was drawn, as on the verify workloads
                out[name] = (accounting["checked"] / accounting["draws"]
                             if accounting["draws"] else 0.0, None)
            else:
                out[name] = (accounting[stat], None)
        elif stat == "self_s":
            out[name] = (agg["self_s"].get(base, 0.0), None)
        elif base in missing:
            out[name] = (None, missing[base])
        elif base not in wrapped:
            out[name] = (None, f"unmeasured: {base} is not in the wrap table")
        elif stat == "calls":
            out[name] = (counters[base]["calls"], None)
        else:
            out[name] = (agg["incl"][base], None)
    return out
