"""In-memory span recorder for the traced run.

A span is one call across a layer boundary: name, start, end, the span
that caused it, and the trace id shared by every span of one top-level
operation (one build, one offline batch, one broker query). Spans are
recorded from the benchmark's own code, around calls into the library's
public functions and around the methods of objects the benchmark loaded;
nothing under ``src/`` is instrumented. With tracing off the recorder
hands back the original callables and a no-op context, so the untraced
run pays nothing.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    trace_id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of the single-threaded driver process; written
    out at exit."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_trace = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._next_trace += 1
        sp = Span(
            span_id=len(self.spans),
            trace_id=parent.trace_id if parent else self._next_trace,
            parent=parent.span_id if parent else None,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, sink: list | None = None):
        """``fn`` with every call recorded as a span named ``name``; with a
        ``sink``, each call also appends (trace id, return value) to it."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if sink is not None:
                sink.append((sp.trace_id, out))
            return out

        return traced

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time (seconds).

        Self time is a span's duration minus the time its children cover;
        children of one span never overlap because the driver process is
        single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        table: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            row = table.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += sp.duration - child_time[sp.span_id]
        return table

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(asdict(sp)) + "\n")
