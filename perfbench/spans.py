"""Span recorder for the traced benchmark run.

The traced run wraps the public functions of each layer module from
here, so the program under test is measured without a line of it
changing.  A span records its name, start, end, thread and parent; the
parent is the span open in the same thread (or asyncio task) when it
began, tracked through a context variable.  A span's *self time* is
its duration minus the durations of its children, so self times of one
thread add up to that thread's traced wall time.

Work a layer hands to another thread (block-scheduler workers, the
serve compute thread) has no parent there: it is a root span of its own
thread, and the span that waited for it counts the wait as self time.
Spans recorded in worker processes die with them; only the parent
process is traced.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Most spans one run keeps; a run that records more drops the rest
#: from the trace file and reports how many it dropped.
SPAN_LIMIT = 1_000_000


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_ns", "tid", "phase")

    def __init__(self, name: str, parent: Optional["Span"], phase: str):
        self.name = name
        self.parent = parent
        self.phase = phase
        self.child_ns = 0
        self.tid = threading.get_ident()
        self.end = 0
        self.start = time.perf_counter_ns()

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Recorder:
    """Spans and counters of one run; recording only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        #: Tag stored on every span: ``"setup"`` or ``"op"``.
        self.phase = "setup"
        self.spans: List[Span] = []
        self.dropped = 0
        self.counters: Dict[str, float] = defaultdict(float)
        #: ``(phase, cache_bytes, contexts)`` of each pool whenever
        #: its stats are read, which the engine does when it is done
        #: with the pool.
        self.pool_readings: List[tuple] = []
        #: ``(phase, GridStore)`` of the grid stores created while
        #: recording, for their counters at the end.
        self.grid_stores: List[tuple] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()

    def begin(self, name: str):
        span = Span(name, self._current.get(), self.phase)
        return span, self._current.set(span)

    def end(self, span: Span, token) -> None:
        span.end = time.perf_counter_ns()
        self._current.reset(token)
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(span)
        else:
            self.dropped += 1

    def current(self) -> Optional[Span]:
        return self._current.get()

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter; safe from any thread."""
        with self._lock:
            self.counters[self.phase + ":" + name] += amount

    def counter(self, name: str, phase: str = "op") -> float:
        return self.counters.get(phase + ":" + name, 0)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None):
        """``fn`` recording a span ``name`` while the recorder is active.

        ``note(*args, **kwargs)`` runs first on each recorded call, to
        count work (cells, bytes) where the work is handed over.
        """
        recorder = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not recorder.active:
                    return await fn(*args, **kwargs)
                if note is not None:
                    note(*args, **kwargs)
                span, token = recorder.begin(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder.end(span, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            if note is not None:
                note(*args, **kwargs)
            span, token = recorder.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(span, token)

        return traced

    def patch_method(self, cls, attr: str, name: str, note=None) -> None:
        """Wrap ``cls.attr`` in place (plain, static or class method)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, note)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, note)))
        else:
            setattr(cls, attr, self.wrap(name, raw, note))

    def patch_function(self, module, attr: str, name: str, note=None) -> None:
        """Wrap a module function and every ``from ... import`` of it.

        Modules that imported the function by name hold their own
        reference, so each loaded ``repro`` module is searched for it.
        """
        original = getattr(module, attr)
        traced = self.wrap(name, original, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def select(self, phase: str = "op", names=None) -> List[Span]:
        """Spans of ``phase``, only those named in ``names`` if given."""
        if isinstance(names, str):
            names = {names}
        return [
            span for span in self.spans
            if span.phase == phase and (names is None or span.name in names)
        ]

    def self_ms(self, names, phase: str = "op") -> float:
        """Total self time (ms) of the named spans in ``phase``."""
        return sum(span.self_ns for span in self.select(phase, names)) / 1e6

    def total_ms(self, names, phase: str = "op") -> float:
        """Total duration (ms) of the named spans in ``phase``."""
        return sum(span.duration_ns for span in self.select(phase, names)) / 1e6

    def calls(self, names, phase: str = "op") -> int:
        return len(self.select(phase, names))

    def self_time_table(self, ops: int, wall_ms: float,
                        unattributed_ms: float, root: str = "") -> str:
        """Per-layer self time of the ``op`` phase, per op.

        Rows group spans by layer (the part of the name before ``/``).
        The ``root`` span, if named, is left out of its layer: its self
        time is the ``unattributed`` row the caller passes, time inside
        the op that no traced layer accounts for.  Shares are of the op
        wall time; threads run concurrently, so they need not sum to
        100%.
        """
        by_layer: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for span in self.select("op"):
            if span.name == root:
                continue
            row = by_layer[span.name.split("/", 1)[0]]
            row[0] += 1
            row[1] += span.self_ns / 1e6
        ops = max(ops, 1)
        lines = [
            f"{'layer':<14} {'calls/op':>10} {'self ms/op':>11} {'share':>7}"
        ]
        rows = sorted(by_layer.items(), key=lambda item: -item[1][1])
        rows.append(("unattributed", [0, unattributed_ms * ops]))
        for layer, (calls, ms) in rows:
            share = ms / ops / wall_ms if wall_ms > 0 else 0.0
            lines.append(
                f"{layer:<14} {calls / ops:>10.1f} {ms / ops:>11.3f} "
                f"{share:>7.1%}"
            )
        lines.append(f"{'op wall':<14} {'':>10} {wall_ms:>11.3f}")
        return "\n".join(lines)

    def write_chrome_trace(self, path: str) -> None:
        """All kept spans as Chrome trace-event JSON (``ph: X``)."""
        pid = os.getpid()
        events = []
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split("/", 1)[0],
                    "ph": "X",
                    "ts": span.start / 1e3,
                    "dur": span.duration_ns / 1e3,
                    "pid": pid,
                    "tid": span.tid,
                    "args": {
                        "phase": span.phase,
                        "self_us": span.self_ns / 1e3,
                        "parent": (
                            span.parent.name if span.parent is not None
                            else None
                        ),
                    },
                }
            )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"dropped_spans": self.dropped},
                },
                fh,
            )
