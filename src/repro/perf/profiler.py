"""Lightweight wall-clock stage profiler for the batch-preparation
hot paths.

Unlike the simulated cost model (``repro.transfer.hardware``), which
converts *counts* into hypothetical cluster seconds, this profiler
measures the *actual* python wall time spent in the hot kernels —
block assembly, aggregation-matrix construction, evaluation sampling —
plus hit/miss counters for the memoization layers.  Engines snapshot the
profiler around an epoch and attach the delta to their
:class:`~repro.dist.engine.EpochStats`, so benchmarks can see real time
next to simulated time.

The module-level :data:`PERF` singleton is what the hot paths write to;
its overhead is two ``perf_counter`` calls per timed region, negligible
next to the numpy work inside.
"""

from __future__ import annotations

import math
import time

__all__ = ["StageProfiler", "PERF", "percentile", "summarize",
           "wall_clock"]


def wall_clock():
    """The sanctioned wall-clock read: ``time.perf_counter()``.

    Every real-time measurement in the library flows through this
    module (the determinism linter's RPR002 enforces it), so one grep
    finds every place host timing can enter a result.  Simulated paths
    must never call this — they advance the cost model's clock instead.
    """
    return time.perf_counter()


#: Sentinel distinguishing "no default supplied" from ``default=None``.
_RAISE = object()


def percentile(values, q, default=_RAISE, presorted=False):
    """The ``q``-th percentile of ``values`` with linear interpolation
    between closest ranks (the same definition as
    ``numpy.percentile(..., method="linear")``), implemented directly so
    the serving metrics do not round-trip observation lists through
    numpy for every report.

    ``values`` may be empty only when ``default`` is supplied: the
    default is returned instead of raising.  Report builders that must
    render zero-traffic entities (a fleet replica that received no
    requests) pass ``default=None`` so their latency fields serialize
    as JSON ``null`` rather than a fabricated number.

    ``presorted=True`` promises ``values`` is already ascending (a list
    kept ordered with ``bisect.insort``) and skips the sort, so a
    running quantile costs O(1) per read instead of O(n log n).
    """
    if not values:
        if default is not _RAISE:
            return default
        raise ValueError("percentile of an empty observation list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = values if presorted else sorted(values)
    rank = (len(ordered) - 1) * (q / 100.0)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    return float(ordered[low] * (1.0 - fraction)
                 + ordered[high] * fraction)


def summarize(values):
    """count/mean/p50/p95/p99/max digest of a column of observations
    (a node's request latencies or queue depths), or ``None`` for an
    empty one.  The mean sums ``values`` in the order given — that
    order is part of its bits — and every figure is a ``float``."""
    if not values:
        return None
    ordered = sorted(values)
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": percentile(ordered, 50.0, presorted=True),
        "p95": percentile(ordered, 95.0, presorted=True),
        "p99": percentile(ordered, 99.0, presorted=True),
        "max": float(ordered[-1]),
    }


class _Timed:
    """What :meth:`StageProfiler.timed` returns.  A class, not a
    ``contextlib`` generator: the hot paths open a handful per sampled
    block, and a generator-based manager makes six interpreter calls
    before the first ``perf_counter``."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler, name):
        self._profiler = profiler
        self._name = name

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *_exc):
        self._profiler.add_seconds(self._name,
                                   time.perf_counter() - self._start)


class StageProfiler:
    """Accumulates named counters and named wall-clock timers.

    Counters and timers live in separate namespaces: ``count(name)``
    increments ``counters[name]``; ``timed(name)`` adds elapsed seconds
    to ``seconds[name]`` and bumps ``counters[name + "_calls"]``.
    Distributions are not kept here: a serving node appends to plain
    lists and :func:`summarize` digests them.
    """

    def __init__(self):
        self.counters = {}
        self.seconds = {}

    # -- counters ------------------------------------------------------
    def count(self, name, value=1):
        """Add ``value`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def add_seconds(self, name, seconds):
        """Add measured ``seconds`` to timer ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + float(seconds)
        self.count(name + "_calls")

    def timed(self, name):
        """Time a ``with`` block into timer ``name`` (also when the
        block raises)."""
        return _Timed(self, name)

    # -- reading -------------------------------------------------------
    def snapshot(self):
        """A flat copy of all counters and timers (timers suffixed
        ``_seconds``)."""
        out = dict(self.counters)
        for name, value in self.seconds.items():
            out[name + "_seconds"] = value
        return out

    def delta(self, before):
        """Counters/timers accumulated since ``before = snapshot()``,
        dropping entries that did not move."""
        now = self.snapshot()
        out = {}
        for name, value in now.items():
            moved = value - before.get(name, 0)
            if moved:
                out[name] = moved
        return out

    def reset(self):
        """Zero every counter and timer."""
        self.counters.clear()
        self.seconds.clear()


#: Process-wide profiler written to by the hot paths.
PERF = StageProfiler()
