"""In-memory spans for the traced benchmark run, and the arithmetic on them.

A span is one call into a wrapped function: its name, start and end on the
perf_counter_ns clock, the index of the enclosing span (-1 at top level) and
the id of the run that recorded it.  Spans are kept in a list while the run
lasts and written out once at the end, so tracing does no I/O of its own.
"""

from __future__ import annotations

import functools
import math
import re
import time
from dataclasses import dataclass

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclass(frozen=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    run_id: str

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Recorder:
    """Collects spans around calls to the functions it wraps.

    Spans are strictly nested because the traced program is single-threaded,
    so a stack of open span indices gives each new span its parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)  # reserved so children can name it as parent
            self._open.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.run_id)

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace owner.attribute (a module or class attribute) by a wrapper."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
        }


def spans_from_json(doc: dict) -> list[Span]:
    run_id = doc["run_id"]
    return [Span(name, start, end, parent, run_id)
            for name, start, end, parent in doc["spans"]]


def self_seconds(spans: list[Span]) -> list[float]:
    """Per span of one run: its duration minus its direct children's.

    Parent indices refer to positions in the same list.  Spans are strictly
    nested, so a span's children lie inside it and never overlap.
    """
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return [ns * 1e-9 for ns in own]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty list")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Layer:
    """Totals for one span name across every run of a traced repeat."""

    durations: list
    self_s: float = 0.0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total_s(self) -> float:
        return sum(self.durations)


def summarize(runs: list[list[Span]]) -> dict[str, Layer]:
    """Group the spans of several runs by name, with durations and self time."""
    layers: dict[str, Layer] = {}
    for spans in runs:
        for span, own in zip(spans, self_seconds(spans)):
            layer = layers.setdefault(span.name, Layer([]))
            layer.durations.append(span.seconds)
            layer.self_s += own
    return layers
