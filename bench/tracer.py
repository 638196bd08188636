"""In-memory spans around the benchmark's calls into cflat.

A span holds its name, start, end, the index of its parent span (-1 for a
root) and the request id current when it opened (a trial or call index).
Spans are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import math
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, request)
        self._stack = [-1]
        self.request = -1
        self.counts: dict[str, int] = {}

    def add(self, name: str, n: int) -> None:
        """Add n units of work (trials, terms, ...) to the count `name`."""
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name, fn, *args):
        """fn(*args) inside a span named `name`; the span is kept when fn raises."""
        idx = len(self.spans)
        parent = self._stack[-1]
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.request)

    def span(self, name):
        return _Span(self, name)

    def durations(self, name) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name) -> list[float]:
        """Duration minus the time covered by direct children.  Children run
        one after another on this thread, so their durations do not overlap."""
        child = {}
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
        return [
            (s[2] - s[1]) - child.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s[0] == name
        ]

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,request\n")
            for i, (name, t0, t1, parent, req) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{req}\n")


class _Span:
    __slots__ = ("tracer", "name", "idx", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.idx)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.idx] = (self.name, self.t0, t1, tr._stack[-1], tr.request)
        return False


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
