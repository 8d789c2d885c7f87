"""Every function the benchmark's traced run wraps must still exist.

A target that no longer resolves is reported by the bench as unmeasured,
and its per-layer metric turns into null; this catches a rename or a
deletion before the bench does.
"""

import importlib
import json
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" \
    / "workloads.json"


def _resolve(target):
    """The raw attribute named by ``module:Qual.name`` and its owner."""
    modname, _, qual = target.partition(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, vars(owner)[attr]


def test_every_wrapped_target_resolves():
    wraps = json.loads(WORKLOADS.read_text(encoding="utf-8"))["wraps"]
    assert wraps
    missing = []
    for entry in wraps:
        assert entry["kind"] in ("span", "count"), entry
        try:
            owner, raw = _resolve(entry["target"])
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{entry['name']}: {entry['target']} ({exc!r})")
            continue
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        if not callable(func):
            missing.append(f"{entry['name']}: {entry['target']} is not "
                           f"callable")
    assert not missing, "unresolved bench targets:\n" + "\n".join(missing)
