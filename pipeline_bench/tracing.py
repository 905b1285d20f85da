"""Spans around the benchmark's calls into the program's modules.

Every call an operation makes into the program goes through ``call(span,
fn, *args)``; the span name is ``<module>.<stage>``. The untraced run uses
``Untraced``, which only forwards the call, so both runs execute the same
operation code.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict


class Untraced:
    def call(self, span, fn, *args):
        return fn(*args)


class SpanTracer:
    """Keeps (name, operation id, start, end) for every call, in memory."""

    def __init__(self):
        self.op = None
        self.spans: list[tuple[str, object, float, float]] = []

    def call(self, span, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((span, self.op, start, time.perf_counter()))


class AllocTracer:
    """Per module, the highest ``tracemalloc`` peak of one call above the
    memory traced when the call began. Needs ``tracemalloc`` running."""

    def __init__(self):
        self.peaks: dict[str, int] = defaultdict(int)

    def call(self, span, fn, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args)
        finally:
            module = span.split(".", 1)[0]
            peak = tracemalloc.get_traced_memory()[1] - base
            self.peaks[module] = max(self.peaks[module], peak)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one SpanTracer span adds to a call, measured on a no-op."""
    def noop():
        return None

    tracer = SpanTracer()
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        tracer.call("x", noop)
    traced = time.perf_counter() - start
    return max(traced - direct, 0.0) / calls
