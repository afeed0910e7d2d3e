"""Timing spans around ucfw's public functions and methods, installed from
the benchmark's own files.

Each call through a wrapper records one span: name, start, end, parent
span and a unit count (rows, iterations, points; 1 by default).  Spans
stay in flat in-memory arrays while the traced round runs and are written
once at the end.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.units = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn, count=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, units = self.name_id, self.parent, self.start, self.end, self.units
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            units.append(1)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if count is not None:
                units[i] = count(args, out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a module global or a class method) by a
        traced wrapper; ``count(args, result)`` gives the span's units."""
        own = attr in vars(owner)
        fn = getattr(owner, attr)
        self._patches.append((owner, attr, fn, own))
        setattr(owner, attr, self._wrap(name, fn, count))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a root span."""
        return self._wrap(name, fn)(*args, **kwargs)

    def restore(self) -> None:
        for owner, attr, fn, own in reversed(self._patches):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "units": np.frombuffer(self.units, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_table(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, units, self and inclusive seconds, plus the
    calls and units of spans whose parent has another name (outermost
    calls of a layer that nests in itself)."""
    nid, parent = spans["name_id"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(float)
    n, k = len(nid), len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - child
    parent_name = np.where(has_parent, nid[np.where(has_parent, parent, 0)], -1)
    outer = parent_name != nid
    table = {}
    calls = np.bincount(nid, minlength=k)
    units = np.bincount(nid, weights=spans["units"], minlength=k)
    outer_units = np.bincount(nid[outer], weights=spans["units"][outer], minlength=k)
    self_s = np.bincount(nid, weights=self_ns, minlength=k) * 1e-9
    incl_s = np.bincount(nid[outer], weights=dur[outer], minlength=k) * 1e-9
    for j, name in enumerate(names):
        table[name] = {
            "calls": int(calls[j]),
            "units": int(units[j]),
            "outer_units": int(outer_units[j]),
            "self_s": float(self_s[j]),
            "incl_s": float(incl_s[j]),
        }
    return table


def child_calls(names: list[str], spans: dict[str, np.ndarray], child: str, parent: str) -> int:
    """How many ``child`` spans sit directly under a ``parent`` span."""
    if child not in names or parent not in names:
        return 0
    nid, par = spans["name_id"], spans["parent"]
    mask = (nid == names.index(child)) & (par >= 0)
    return int(np.count_nonzero(nid[par[mask]] == names.index(parent)))
