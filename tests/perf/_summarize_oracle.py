"""The column digest as it was before it sorted with numpy: python's
``sorted()`` over the observation objects.  Kept as the oracle
``tests/perf/test_summarize_oracle.py`` holds
:func:`repro.perf.summarize` / :func:`repro.perf.percentile` to, byte
for byte — verbatim but for the mean, whose left-to-right sum is
spelled out so that the oracle means the same on every python."""

import math

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
    # Left to right from 0.0, spelled out: the builtin ``sum`` is
    # compensated from python 3.12, and 3.11's bits are the contract.
    total = 0.0
    for value in values:
        total += value
    return {
        "count": len(values),
        "mean": total / len(values),
        "p50": percentile(ordered, 50.0, presorted=True),
        "p95": percentile(ordered, 95.0, presorted=True),
        "p99": percentile(ordered, 99.0, presorted=True),
        "max": float(ordered[-1]),
    }
