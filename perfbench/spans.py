"""Outside-in span recording for the traced benchmark run.

The benchmark never edits the simulator.  It measures a layer by
replacing one of the layer's public entry points (a method, classmethod
or module-level function) with a wrapper that records a span around the
original call, and it puts the original back when the run ends.

A span is ``(name, host start, host end, parent span, cell id)``.  Spans
live in memory and are written out once, after the run.  The layer of a
span is the text before the first dot of its name (``net.send`` belongs
to ``net``).  Every span has a host start and end on
``time.perf_counter``; the simulator runs on one thread, so spans nest
strictly and a stack gives each span its parent.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (name, start, end, parent index or -1, cell id)
Span = Tuple[str, float, float, int, str]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """Spans and call counts, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.cells: List[str] = []
        self.calls: Counter = Counter()
        self.cell = ""
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.cells.append(self.cell)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.calls[name] += 1
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def spans(self) -> List[Span]:
        return list(
            zip(self.names, self.starts, self.ends, self.parents, self.cells)
        )


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its direct
    children cover (the union of their intervals, clipped to the span)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _cell in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _cell) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(idx, ())):
            c0 = max(c0, reach)
            c1 = min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def outermost_totals(spans: Sequence[Span], key: Callable[[str], str]) -> Dict[str, float]:
    """Host time per ``key(name)``, counting a span only when no
    ancestor has the same key, so that recursion and nested entry
    points of one layer are not counted twice."""
    keys = [key(s[0]) for s in spans]
    totals: Dict[str, float] = {}
    for idx, (name, start, end, parent, _cell) in enumerate(spans):
        k = keys[idx]
        p = parent
        while p >= 0 and keys[p] != k:
            p = spans[p][3]
        if p < 0:
            totals[k] = totals.get(k, 0.0) + (end - start)
    return totals


def chrome_trace(spans: Sequence[Span]) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, host clock in µs)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(s[1] for s in spans)
    events = []
    for idx, (name, start, end, parent, cell) in enumerate(spans):
        events.append({
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"cell": cell, "span": idx, "parent": parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


Observer = Callable[[tuple, dict, object], None]


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(original)``.  On a class the
        attribute must be defined by that class itself (patch the class
        that defines a method, not a subclass that inherits it)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def spanned(rec: SpanRecorder, name: str, observe: Optional[Observer] = None):
    """A ``make`` for :meth:`Patcher.replace` that records one span per
    call and hands ``(args, kwargs, result)`` to ``observe``."""

    def make(orig: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec.close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    return make
