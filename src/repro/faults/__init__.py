"""Fault injection, retry, and checkpoint/resume for the simulated
cluster.

The paper evaluates on a healthy 4-node testbed; this subsystem asks
what its cost breakdown looks like when the cluster is *not* healthy —
stragglers, flaky remote fetches, degraded links, crashed workers — and
provides the recovery machinery (retries with exponential backoff,
epoch-boundary checkpoints, crash-resume, graceful degradation) that a
production deployment needs.  Everything is seeded and replayed on the
simulated clock, so fault timelines are bit-reproducible: something a
physical testbed cannot promise.

Layout
------
:mod:`repro.faults.plan`
    :class:`FaultEvent` / :class:`FaultPlan` (the seeded schedule) and
    :class:`FaultInjector` (replays it against the epoch clock).
:mod:`repro.faults.retry`
    :class:`RetryPolicy` — bounded attempts, exponential backoff,
    deterministic jitter, per-attempt timeout.
:mod:`repro.faults.checkpoint`
    :class:`Checkpointer` — crash-safe checkpoints in two alternating
    slot files, each save one in-place write and one fsync, each slot
    a SHA-256-verified record.
:mod:`repro.faults.bench`
    The fault-recovery benchmark behind ``repro bench faults``.
"""

from .checkpoint import Checkpointer
from .plan import FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan
from .retry import RetryPolicy

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "FAULT_KINDS",
           "RetryPolicy", "Checkpointer", "run_fault_bench"]


def run_fault_bench(*args, **kwargs):
    """Lazy re-export of :func:`repro.faults.bench.run_fault_bench`
    (imports the training stack only when actually benchmarking)."""
    from .bench import run_fault_bench as _run
    return _run(*args, **kwargs)
