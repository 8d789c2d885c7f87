"""Spans and counters installed around ghz functions from outside the package.

Nothing under ``src/ghz`` is edited: each entry of the wrap table in
``workloads.json`` names a function, method or classmethod by
``module:Qualified.name``, and ``install`` replaces every binding of it (the
defining module, each module that imported it with ``from ... import``, or the
class attribute) with a wrapper that feeds a ``Recorder``.

A ``span`` wrapper records (name, start, end, parent) in memory; a ``count``
wrapper only counts.  Both count calls, ``None`` returns and raised
exceptions, which the probe accounting needs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array


class Recorder:
    """In-memory spans and per-name counters of one pass."""

    def __init__(self, names):
        self.names = list(names)
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.calls = [0] * len(self.names)
        self.nones = [0] * len(self.names)
        self.raised = [0] * len(self.names)

    def counters(self) -> dict:
        return {name: {"calls": self.calls[i], "nones": self.nones[i],
                       "raised": self.raised[i]}
                for i, name in enumerate(self.names)}

    def spans(self):
        return self.nid, self.parent, self.start, self.end

    def write(self, path, pass_id) -> None:
        """Write the spans out: one JSON header line, then the raw arrays."""
        header = {"pass": pass_id, "names": self.names, "count": len(self.nid),
                  "arrays": ["nid:i", "parent:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in self.spans():
                arr.tofile(fh)


def read_spans(path):
    """Inverse of ``Recorder.write``: (header, nid, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return (header, *arrays)


def _span_wrapper(fn, i, rec: Recorder):
    nid, parent, start, end, stack = (rec.nid, rec.parent, rec.start,
                                      rec.end, rec.stack)
    calls, nones, raised = rec.calls, rec.nones, rec.raised
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(nid)
        nid.append(i)
        parent.append(stack[-1])
        end.append(0.0)
        stack.append(idx)
        calls[i] += 1
        start.append(clock())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            raised[i] += 1
            raise
        finally:
            end[idx] = clock()
            stack.pop()
        if result is None:
            nones[i] += 1
        return result

    return wrapper


def _count_wrapper(fn, i, rec: Recorder):
    calls, nones, raised = rec.calls, rec.nones, rec.raised

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[i] += 1
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            raised[i] += 1
            raise
        if result is None:
            nones[i] += 1
        return result

    return wrapper


def _resolve(target):
    """(owner, attribute, raw object) for ``module:Qual.name``, or None."""
    modname, _, qual = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


def install(wraps, rec: Recorder, package="ghz"):
    """Wrap every entry of ``wraps``, which are the names of ``rec``, each
    in its own kind.

    Returns {name: reason} for the entries that could not be found; their
    metrics are reported as unmeasured, and the pass runs regardless.
    """
    missing = {}
    for entry in wraps:
        name = entry["name"]
        found = _resolve(entry["target"])
        if found is None:
            missing[name] = f"unmeasured: {entry['target']} not found"
            continue
        owner, attr, raw = found
        make = _span_wrapper if entry["kind"] == "span" else _count_wrapper
        i = rec.names.index(name)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__, i, rec)))
        elif isinstance(owner, type):
            setattr(owner, attr, make(raw, i, rec))
        else:
            wrapped = make(raw, i, rec)
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "") or ""
                if modname.partition(".")[0] != package:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
    return missing


def aggregate(names, layers, nid, parent, start, end, roots=()):
    """Per-name and per-layer totals of one pass's spans.

    Spans are indexed in entry order, so a parent precedes its children and,
    on one thread, span j encloses a later span i exactly when
    start[i] < end[j].

    - ``incl[name]``: summed duration of the spans of ``name`` not nested in
      another span of the same name.
    - ``self_s[layer]``: summed span duration minus the duration of the
      span's direct children, over the spans of that layer.
    - ``under[root][layer]``: the part of ``self_s[layer]`` spent inside a
      span of ``root`` (the root's own self time included).
    - ``children[root][name]``: summed duration of spans of ``name`` whose
      parent is a span of ``root``.
    """
    n = len(nid)
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    incl = {name: 0.0 for name in names}
    self_s = {layer: 0.0 for layer in set(layers)}
    root_ids = {names.index(r): r for r in roots}
    under = {r: {layer: 0.0 for layer in set(layers)} for r in roots}
    children = {r: {} for r in roots}
    open_end = [float("-inf")] * len(names)
    for i in range(n):
        k = nid[i]
        dur = end[i] - start[i]
        if start[i] >= open_end[k]:
            incl[names[k]] += dur
            open_end[k] = end[i]
        own = dur - child[i]
        self_s[layers[k]] += own
        for r_id, r in root_ids.items():
            if k == r_id or start[i] < open_end[r_id]:
                under[r][layers[k]] += own
            if parent[i] >= 0 and nid[parent[i]] == r_id:
                children[r][names[k]] = children[r].get(names[k], 0.0) + dur
    return {"incl": incl, "self_s": self_s, "under": under,
            "children": children}
