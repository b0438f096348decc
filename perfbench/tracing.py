"""Spans for the traced benchmark run, and the per-layer numbers made from them.

Spans are recorded from the benchmark's own files only: around its calls
into each module, plus span-recording wrappers around the four build phases
of ``gnatty.tree``, rebound as module attributes in the traced process
(``_build_node`` looks them up at call time).  Distance calls are far too
many for one span each, so the timing metric adds each call's count and
time to the innermost open span.

Every span keeps its name, start, end and parent, in memory, until the run
writes them out.  A span's self time is its duration minus the time its
child spans cover, minus the kernel time charged to it directly.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import gnatty.tree
from gnatty import MetricSpace

_NULL_SPAN = contextlib.nullcontext()

# gnatty.tree attributes wrapped in the traced run, with their span names
TREE_PHASES = {
    "ball_partition": "tree.partition",
    "hyperplane_partition": "tree.partition",
    "compute_range_table": "tree.range_table",
    "encode_table": "tree.encode_table",
}

# span names whose kernel calls count as build or as query work
BUILD_SPANS = ("tree.build", "baselines.build")
QUERY_SPANS = ("search.range", "search.knn", "baselines.query")


class NullTracer:
    """Records nothing; the untraced runs use it."""

    def span(self, name):
        return _NULL_SPAN


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "calls", "kernel_s")

    def __init__(self, sid, name, parent, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.calls = 0
        self.kernel_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; the root span is open for the tracer's life."""

    def __init__(self):
        root = Span(0, "run", None, time.perf_counter())
        self.spans = [root]
        self.stack = [root]

    @contextlib.contextmanager
    def span(self, name):
        span = Span(len(self.spans), name, self.stack[-1].sid, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        try:
            yield span
        finally:
            self.stack.pop()
            span.end = time.perf_counter()

    def close(self) -> None:
        self.spans[0].end = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"id": s.sid, "name": s.name, "parent": s.parent,
                        "start": s.start, "end": s.end, "calls": s.calls,
                        "kernel_s": s.kernel_s} for s in self.spans], handle)


class TimedMetric(MetricSpace):
    """Returns the wrapped metric's values unchanged; charges each call's
    count and time to the innermost open span."""

    def __init__(self, wrapped: MetricSpace, tracer: Tracer):
        self.name = wrapped.name
        self._fn = wrapped.distance
        self._stack = tracer.stack

    def distance(self, a, b) -> float:
        start = time.perf_counter()
        d = self._fn(a, b)
        span = self._stack[-1]
        span.kernel_s += time.perf_counter() - start
        span.calls += 1
        return d


def _spanned(fn, name, tracer):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def traced_tree_phases(tracer: Tracer):
    """Rebind the build phases of gnatty.tree to span-recording wrappers."""
    originals = {attr: getattr(gnatty.tree, attr) for attr in TREE_PHASES}
    for attr, name in TREE_PHASES.items():
        setattr(gnatty.tree, attr, _spanned(originals[attr], name, tracer))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(gnatty.tree, attr, fn)


def span_totals(spans: list[Span]) -> tuple[dict, dict]:
    """Two maps keyed by span name.  ``totals[name]``: the seconds and self
    seconds of the spans with that name.  ``kernel[name]``: the distance
    calls, and their seconds, charged to those spans or to spans inside them."""
    child_s = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.seconds
    totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
    kernel = defaultdict(lambda: {"calls": 0, "s": 0.0})
    enclosing = {}
    for span in spans:  # parents precede their children
        names = enclosing.get(span.parent, frozenset()) | {span.name}
        enclosing[span.sid] = names
        totals[span.name]["s"] += span.seconds
        totals[span.name]["self_s"] += span.seconds - child_s[span.sid] - span.kernel_s
        for name in names:
            kernel[name]["calls"] += span.calls
            kernel[name]["s"] += span.kernel_s
    return totals, kernel
