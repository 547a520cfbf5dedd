"""Hot-path counters, the wall-clock read and the column digest.

Unlike the simulated cost model (``repro.transfer.hardware``), which
converts *counts* into hypothetical cluster seconds, this module is
about the host.  The module-level :data:`PERF` singleton holds the
counters the benchmark of record reads — kernel FLOPs and the memo hits
of the transposed operators and evaluation subgraphs — plus the
sanitizers' checks.  Engines snapshot it around an epoch and attach
the delta to their :class:`~repro.dist.engine.EpochStats`.  Nothing
else on a sampled batch writes to it: a counter that no report reads
is per-call work for nobody.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import numpy as np

__all__ = ["StageProfiler", "PERF", "ordered_sum", "percentile",
           "summarize", "wall_clock"]


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

    ``presorted=True`` promises ``values`` already reads as an
    ascending sequence — a sorted list, or the fleet's
    ``_LatencyRanks``, whose ``[i]`` answers as the sorted list would
    — and skips the sort, so a running quantile is not re-sorted on
    every read.
    """
    if len(values) == 0:
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


def ordered_sum(values):
    """The float sum of ``values``, left to right from ``0.0``: the bits
    of python 3.11's builtin ``sum``, which the tracked reports hold.
    From 3.12 the builtin compensates its float sums, so a report that
    sums seconds or latencies spells the order out."""
    total = 0.0
    for value in values:
        total += value
    return total


def summarize(values):
    """count/mean/p50/p95/p99/max digest of a column of observations
    (a node's request latencies, ideally already a float64 array), or
    ``None`` for an empty one.  The mean is :func:`ordered_sum`'s over
    ``values`` in the order given — that order is part of its bits —
    and every figure is a ``float``.

    The percentiles read a float64 copy sorted by numpy, not
    ``sorted()`` over python objects (a fleet run's 60 000 latencies
    took most of its report time that way).  For a finite column the
    bits are ``sorted()``'s: the only equal values that differ in bits
    are ``0.0`` and ``-0.0``, and their run is put back in input order,
    where a stable sort leaves it.
    """
    if len(values) == 0:
        return None
    column = np.asarray(values, dtype=np.float64)
    ordered = np.sort(column)
    zeros = column == 0.0
    if zeros.any():
        ordered[ordered == 0.0] = column[zeros]
    # ``accumulate`` adds strictly in order (``np.sum`` pairs); ``+ 0.0``
    # is the ``0.0`` start, which turns an all ``-0.0`` sum positive.
    # Like python's, the sum may overflow to ``inf`` without a word.
    with np.errstate(over="ignore"):
        total = float(np.add.accumulate(column)[-1]) + 0.0
    return {
        "count": len(values),
        "mean": total / len(values),
        "p50": percentile(ordered, 50.0, presorted=True),
        "p95": percentile(ordered, 95.0, presorted=True),
        "p99": percentile(ordered, 99.0, presorted=True),
        "max": float(ordered[-1]),
    }


class StageProfiler:
    """Accumulates named counters.

    ``counters`` is a ``defaultdict(int)``; every site writes
    ``PERF.counters[name] += n``, which makes no interpreter call.
    Distributions are not kept here: a serving node appends latencies
    to a plain list and :func:`summarize` digests it.
    """

    def __init__(self):
        self.counters = defaultdict(int)

    # -- reading -------------------------------------------------------
    def snapshot(self):
        """A copy of every counter."""
        return dict(self.counters)

    def delta(self, before):
        """Counters accumulated since ``before = snapshot()``, dropping
        entries that did not move."""
        now = self.snapshot()
        out = {}
        for name, value in now.items():
            moved = value - before.get(name, 0)
            if moved:
                out[name] = moved
        return out

    def reset(self):
        """Zero every counter."""
        self.counters.clear()


#: Process-wide profiler written to by the hot paths.
PERF = StageProfiler()
