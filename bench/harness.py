"""Span tracing and the arithmetic the benchmark reports.

A span is (name, start, end, parent index, op id), kept in memory and
written out when the run ends.  The untraced runs use NullTracer, whose
calls go straight to the engine.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter

perf = time.perf_counter


class NullTracer:
    """Tracing off: no spans, no counters."""

    tracing = False
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, counter, amount=1):
        pass


class Tracer(NullTracer):
    """Records a span around every call made through ``call``."""

    tracing = True

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.counters = Counter()
        self.timers = Counter()  # accumulated seconds for replayed calls
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf()
            self._stack.pop()

    def add(self, counter, amount=1):
        self.counters[counter] += amount

    def wrap(self, name, fn, measure=None):
        """``fn`` with a span around each call; ``measure(args, result)``
        may add counters."""
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if measure is not None:
                measure(args, result)
            return result
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        out.append((end - start) - covered(children.get(i, ()), start, end))
    return out


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time_by_name(spans) -> Counter:
    totals = Counter()
    for rec, s in zip(spans, self_times(spans)):
        totals[rec[0]] += s
    return totals


def percentile(values, q: float) -> tuple[float, int]:
    """The q-th percentile (0..100) by linear interpolation between closest
    ranks, with the number of samples it rests on."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


def failed_share(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} is outside 0..{attempted}")
    return failed / attempted


def quartile_spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
