"""Span recorder, and the wrappers that put it around brauerval's layers.

A layer is one module of the engine.  `install` wraps every public
function a layer defines, and the public methods of `Lattice`, and
rebinds each wrapper under every name that held the original in any
brauerval module, so calls through `from .x import f` bindings are
recorded too.  Spans stay in memory as parallel arrays; `span_totals`
reduces them to calls, errors, self time and outermost inclusive time
per name when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

LAYERS = ("cli", "scenario", "verify", "division", "towers", "symbols", "lattices", "report")

OUTERMOST = 1
RAISED = 2


def _certified(cert: object) -> int:
    return int(getattr(cert, "status", None) == "certified")


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


# Results worth counting: span name -> (counter suffix, result -> amount).
# Counted on outermost spans only, so a recursive call counts once.
OUTCOMES = {
    "division.chain_division": ("certified", _certified),
    "division.morandi_step": ("certified", _certified),
    "lattices.enumerate_overlattices": ("lattices_out", len),
    "report.render_json": ("json_bytes", _utf8_len),
}


class Recorder:
    """Nested spans, one row per call, with per-task outcome counters.

    Each span has a name, start, end, parent span (-1 at the top) and
    the task id current when it opened.  A span is outermost when no
    open span has the same name, which is how recursive functions get
    an inclusive time that counts each top-level call once.
    """

    def __init__(self, clock=time.monotonic_ns) -> None:
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open_by_name: list[int] = []
        self._stack: list[int] = []
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.task = array("l")
        self.flags = array("B")
        self.current_task = -1
        self.counts: dict[tuple[int, str], int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_by_name.append(0)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def enter(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.current_task)
        self.flags.append(OUTERMOST if self._open_by_name[nid] == 0 else 0)
        self.end.append(0)
        self._open_by_name[nid] += 1
        self._stack.append(i)
        self.start.append(self._clock())
        return i

    def exit(self, i: int, ok: bool) -> None:
        self.end[i] = self._clock()
        self._stack.pop()
        self._open_by_name[self.name[i]] -= 1
        if not ok:
            self.flags[i] |= RAISED

    def count(self, key: str, amount: int) -> None:
        k = (self.current_task, key)
        self.counts[k] = self.counts.get(k, 0) + amount


def span_totals(rec: Recorder) -> dict[str, dict[str, int]]:
    """Per span name: calls, errors, self_ns and outer_ns.

    Self time is a span's duration minus the durations of its direct
    children; the program is single-threaded, so children never overlap.
    outer_ns sums the durations of outermost spans only.
    """
    n = len(rec)
    covered = [0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            covered[p] += rec.end[i] - rec.start[i]
    totals = {name: {"calls": 0, "errors": 0, "self_ns": 0, "outer_ns": 0} for name in rec.names}
    for i in range(n):
        row = totals[rec.names[rec.name[i]]]
        dur = rec.end[i] - rec.start[i]
        row["calls"] += 1
        row["self_ns"] += dur - covered[i]
        flags = rec.flags[i]
        if flags & OUTERMOST:
            row["outer_ns"] += dur
        if flags & RAISED:
            row["errors"] += 1
    return totals


def wrap(rec: Recorder, name: str, fn):
    """fn with a span named `name` around every call."""
    nid = rec.name_id(name)
    suffix, measure = OUTCOMES.get(name, (None, None))
    key = f"{name}.{suffix}"
    enter, exit_ = rec.enter, rec.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = enter(nid)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            exit_(i, ok)
        if measure is not None and rec.flags[i] & OUTERMOST:
            rec.count(key, measure(result))
        return result

    return traced


def install(rec: Recorder, package: str = "brauerval") -> None:
    """Wrap the layers of an imported package in spans recorded by rec."""
    wrappers: dict[types.FunctionType, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
            ):
                wrappers[obj] = wrap(rec, f"{layer}.{attr}", obj)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    lattice = sys.modules[f"{package}.lattices"].Lattice
    for attr, raw in list(vars(lattice).items()):
        if attr.startswith("_"):
            continue
        name = f"lattices.{attr}"
        if isinstance(raw, classmethod):
            setattr(lattice, attr, classmethod(wrap(rec, name, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(lattice, attr, staticmethod(wrap(rec, name, raw.__func__)))
        elif isinstance(raw, types.FunctionType):
            setattr(lattice, attr, wrap(rec, name, raw))
