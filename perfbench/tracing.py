"""In-memory spans recorded around calls into the package's modules.

A span has a name, a start and end time, the index of the span that
contained it, and the operation it belongs to.  Spans are only opened
by the benchmark's own code, around public calls; the package itself is
not instrumented.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 at top level
    op: int

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = -1

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def write(self, path, extra=None):
        payload = dict(extra or {})
        payload["spans"] = [asdict(s) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(spans, op=None):
    """Self time per span name: duration minus the time its children cover.

    ``spans`` is a tracer's whole span list (parents are indices into it);
    ``op`` restricts the sum to the spans of one operation.  Spans are
    opened by one thread, so the children of a span never overlap and
    their durations add up.
    """
    child_time = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out = {}
    for i, s in enumerate(spans):
        if op is None or s.op == op:
            out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(i, 0.0)
    return out
