"""Self-tests of the benchmark harness; they run no workload.

Run from the root of the repository: python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import (accounting_problems, layer_metrics,  # noqa: E402
                     probe_accounting, probe_problems, tail,
                     verify_mismatches)
from spans import Recorder, aggregate, install, read_spans  # noqa: E402

ACCT = {"draws": "draw", "vertex": "vertex", "floor": "floor"}


def test_tail_is_the_highest_value_with_ten_samples_beyond_it():
    assert tail(list(range(100))) == (89, 90.0, 10)
    assert tail(list(range(20, 0, -1))) == (10, 50.0, 10)
    assert tail(list(range(11))) == (0, 100 / 11, 10)


def test_tail_of_ten_or_fewer_samples_is_the_maximum_with_none_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail(list(range(10))) == (9, 100.0, 0)


def _spans(rows):
    """rows: (name id, parent index, start, end) in entry order."""
    return [list(col) for col in zip(*rows)]


def test_self_time_subtracts_direct_children_only():
    names = ["A", "B", "C", "D"]
    layers = ["outer", "inner", "outer", "inner"]
    nid, parent, start, end = _spans([
        (0, -1, 0.0, 10.0),   # A
        (1, 0, 1.0, 4.0),     # B inside A
        (2, 1, 2.0, 3.0),     # C inside B
        (3, 0, 5.0, 9.0),     # D inside A
    ])
    agg = aggregate(names, layers, nid, parent, start, end, roots=["B", "A"])
    assert agg["incl"] == {"A": 10.0, "B": 3.0, "C": 1.0, "D": 4.0}
    # A: 10 - 3 - 4, C: 1; B: 3 - 1, D: 4
    assert agg["self_s"] == {"outer": 4.0, "inner": 6.0}
    assert agg["under"]["B"] == {"outer": 1.0, "inner": 2.0}
    assert agg["under"]["A"] == agg["self_s"]
    assert agg["children"]["A"] == {"B": 3.0, "D": 4.0}
    assert agg["children"]["B"] == {"C": 1.0}


def test_a_name_nested_in_itself_is_counted_once_in_inclusive_time():
    nid, parent, start, end = _spans([
        (0, -1, 0.0, 5.0),
        (0, 0, 1.0, 2.0),
        (0, -1, 6.0, 7.0),
    ])
    agg = aggregate(["E"], ["l"], nid, parent, start, end)
    assert agg["incl"] == {"E": 6.0}
    assert agg["self_s"] == {"l": 6.0}


def test_golden_comparison_ignores_elapsed_seconds_and_new_keys():
    golden = {"ok": True, "violations": [], "notes": ["kernel weights [(0,)]"],
              "trust_markers": []}
    got = dict(golden, elapsed_seconds=4.2, stats={"stages": {}},
               subject="verify")
    assert verify_mismatches(golden, got) == []
    got["notes"] = ["kernel weights [(0,), (5,)]"]
    assert verify_mismatches(golden, got) == ["notes"]
    del got["trust_markers"]
    assert verify_mismatches(golden, got) == ["notes", "trust_markers"]


def _counts(draws, nones, vertex_raised, floor_calls, floor_raised):
    return {"draw": {"calls": draws, "nones": nones, "raised": 0},
            "vertex": {"calls": draws - nones, "nones": 0,
                       "raised": vertex_raised},
            "floor": {"calls": floor_calls, "nones": 0,
                      "raised": floor_raised}}


def test_draw_accounting_invariant_holds_and_detects_a_lost_draw():
    acct = probe_accounting(_counts(10, 5, 1, 4, 1), ACCT)
    assert acct == {"draws": 10, "rejected": 5, "skipped": 2, "checked": 3}
    assert accounting_problems(acct, 3) == []
    assert accounting_problems(acct, 4) == ["checked 3 != trials 4"]
    lost = probe_accounting(_counts(11, 5, 1, 4, 1), ACCT)
    assert accounting_problems(lost, 3) == [
        "draws 11 != rejected + skipped + checked = 10"]


def test_probe_verdict_needs_ok_and_the_trial_count():
    ok = {"ok": True, "violations": [], "notes": ["40 instances agreed"]}
    assert probe_problems(ok, 40) == []
    assert len(probe_problems(ok, 41)) == 1
    bad = {"ok": False, "violations": ["disagreement"],
           "notes": ["counterexample found"]}
    assert len(probe_problems(bad, 40)) == 2


def _fake_package():
    pkg = types.ModuleType("fakeghz")
    a = types.ModuleType("fakeghz.a")
    b = types.ModuleType("fakeghz.b")

    def double(x):
        return 2 * x

    def nothing():
        return None

    class Shape:
        @classmethod
        def make(cls, n):
            return sys.modules["fakeghz.a"].double(n)

    a.double, a.nothing, a.Shape = double, nothing, Shape
    b.double = double  # as after "from .a import double"
    for mod in (pkg, a, b):
        sys.modules[mod.__name__] = mod
    return a, b


def test_install_wraps_every_binding_and_reports_missing_names():
    a, b = _fake_package()
    wraps = [
        {"name": "double", "target": "fakeghz.a:double", "layer": "a",
         "kind": "span"},
        {"name": "make", "target": "fakeghz.a:Shape.make", "layer": "a",
         "kind": "span"},
        {"name": "nothing", "target": "fakeghz.a:nothing", "layer": "a",
         "kind": "count"},
        {"name": "gone", "target": "fakeghz.a:removed", "layer": "a",
         "kind": "span"},
    ]
    rec = Recorder([w["name"] for w in wraps])
    missing = install(wraps, rec, package="fakeghz")
    assert missing == {"gone": "unmeasured: fakeghz.a:removed not found"}
    assert a.double(1) == 2 and b.double(2) == 4
    assert a.Shape.make(3) == 6 and a.nothing() is None
    counters = rec.counters()
    assert counters["double"]["calls"] == 3  # two direct, one via make
    assert counters["make"]["calls"] == 1
    assert counters["nothing"] == {"calls": 1, "nones": 1, "raised": 0}
    # spans: double, double, make > double; the count kind records none
    assert list(rec.nid) == [0, 0, 1, 0]
    assert list(rec.parent) == [-1, -1, -1, 2]


def test_missing_seams_give_null_metrics_with_a_reason_not_zero():
    wraps = [{"name": "polynomials.descend_power", "layer": "polynomials"}]
    per_layer = [{"name": "polynomials.descend_power.calls"},
                 {"name": "polynomials.descend_power.s"},
                 {"name": "polynomials.self_s"},
                 {"name": "classifier.probe.draws"},
                 {"name": "trace.overhead_ratio"}]
    reason = "unmeasured: ghz.polynomials:descend_power not found"
    gone = "unmeasured: ghz.classifier:_random_family not found"
    traced = {"aggregate": {"self_s": {"polynomials": 1.5}, "incl": {}},
              "counters": {},
              "missing": {"polynomials.descend_power": reason, "draw": gone}}
    out = layer_metrics(per_layer, wraps, traced, ACCT, 1.25)
    assert out == {"polynomials.descend_power.calls": (None, reason),
                   "polynomials.descend_power.s": (None, reason),
                   "polynomials.self_s": (1.5, None),
                   "classifier.probe.draws": (None, gone),
                   "trace.overhead_ratio": (1.25, None)}


def test_spans_written_out_read_back_unchanged(tmp_path):
    rec = Recorder(["x"])
    rec.nid.extend([0, 0])
    rec.parent.extend([-1, 0])
    rec.start.extend([1.0, 1.5])
    rec.end.extend([3.0, 2.0])
    path = tmp_path / "spans.bin"
    rec.write(path, pass_id=7)
    header, nid, parent, start, end = read_spans(path)
    assert header["pass"] == 7 and header["names"] == ["x"]
    assert (list(nid), list(parent), list(start), list(end)) == \
        ([0, 0], [-1, 0], [1.0, 1.5], [3.0, 2.0])


def test_in_pass_calibration_is_the_time_weighted_mean_speed():
    from child import CALIB_ITERATIONS, CHUNK_ITERATIONS, SpeedSampler

    sampler = SpeedSampler()
    assert sampler.calibration() is None
    # two chunks: one at full speed, one at half speed -> mean speed 0.75
    sampler.walls = [0.01, 0.02]
    full = CALIB_ITERATIONS / CHUNK_ITERATIONS * 0.01
    assert abs(sampler.calibration() - full / 0.75) < 1e-12
