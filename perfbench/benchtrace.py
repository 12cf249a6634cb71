"""In-memory spans and counts for the traced benchmark pass.

The harness wraps every call it makes into a pebblecc layer in
``tracer.call(name, fn, ...)``. With tracing off the same call goes through
``NullTracer``, which only forwards it, so the job code is identical in both
passes and the difference in pass time is the tracing overhead.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None


class NullTracer:
    """Forwards calls untimed; used for every pass that reports end-to-end metrics."""

    enabled = False
    job: str | None = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: int = 1) -> None:
        pass


class Tracer:
    """Records one span per call (name, start, end, parent span, job id) and named counts."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.job))

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def write(self, fh, pass_index: int) -> None:
        """Append this tracer's spans and counts to an open JSONL file."""
        for s in self.spans:
            fh.write(json.dumps({"pass": pass_index, **s._asdict()}) + "\n")
        fh.write(json.dumps({"pass": pass_index, "counts": dict(self.counts)}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration minus the time covered by child spans.

    Spans from one thread nest, so a span's children cover disjoint parts of
    its interval and their durations can simply be subtracted.
    """
    covered: defaultdict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: defaultdict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    return dict(out)
