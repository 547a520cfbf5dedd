"""Fleet resilience: failure detection, breakers, hedging, recovery.

PR 7's fleet detects a crashed replica only when the
:class:`~repro.faults.RetryPolicy` timeout expires — a 10 ms blind spot
during which orphaned requests sit still and the router keeps the dead
node in mind.  This module closes the gap with four cooperating
mechanisms, all on the simulated clock and all **no-ops when not
configured** (the engine's baseline path stays bit-identical):

:class:`FailureDetector`
    A phi-accrual-style heartbeat monitor.  Replicas heartbeat every
    ``heartbeat_interval`` simulated seconds while alive; the suspicion
    level of a silent node is ``phi(t) = t / (interval * ln 10)`` (the
    classic accrual formula for exponential inter-arrivals), and the
    node is *suspected* when ``phi`` crosses ``suspect_phi`` and
    *declared dead* at ``dead_phi``.  Because everything is simulated,
    the detector is evaluated analytically — no per-heartbeat events:
    the last heartbeat before a crash at time ``T`` is the latest
    multiple of the interval, and suspect/dead instants follow in
    closed form.  With the defaults, suspicion lands ~1 ms after a
    crash — an order of magnitude before the 10 ms retry timeout.

:class:`CircuitBreaker`
    Per-replica closed / open / half-open gate fed by the detector: a
    suspected node's breaker *opens* (the router stops offering it
    requests even after the process is technically back), transitions
    to *half-open* after ``reset_timeout``, and closes again after
    ``half_open_successes`` completed batches prove it healthy.

:class:`HedgePolicy`
    Tail-tolerance knobs: once ``min_observations`` latencies are on
    record, any request still unanswered after the observed
    ``delay_quantile`` (default p95) gets a second copy on a different
    replica; the first response wins and the loser is cancelled out of
    its queue (:meth:`~repro.serve.batcher.MicroBatcher.cancel`) or,
    if already served, counted as wasted work.  ``retry_budget`` bounds
    how many times a crash-orphaned request may be re-routed before the
    fleet drops it — amplification control under brownout.

:class:`ReplicaRecovery`
    Deterministic crash recovery built on the hardened
    :class:`~repro.faults.Checkpointer`: the engine snapshots every
    live replica's :class:`~repro.transfer.tiered.TieredCache`
    residency on a fixed cadence, one commit per round, a crash
    cold-starts the cache, and the recovering node restores its state
    from the last committed round
    (:meth:`~repro.faults.Checkpointer.load_latest` returns the
    other slot's previous round if the newest save was torn).

The faults these mechanisms answer come from a
:class:`~repro.faults.plan.FaultPlan` — the timeline training reads
too — passed as ``FleetEngine(schedule=...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

from ..errors import CheckpointError, FleetError
from ..faults.checkpoint import Checkpointer
from ..perf import ordered_sum

__all__ = ["DetectorPolicy", "FailureDetector", "BreakerPolicy",
           "CircuitBreaker", "HedgePolicy", "ResiliencePolicy",
           "ReplicaRecovery"]

_LN10 = math.log(10.0)


def _check_count(name, value):
    """A count knob must be an integer >= 1: ``nan`` and ``1.5`` pass
    a bare ``value < 1`` test, and then a breaker never closes or
    hedging arms with no latency on record."""
    if not isinstance(value, Integral) or value < 1:
        raise FleetError(f"{name} must be an integer >= 1, got {value!r}")


# ----------------------------------------------------------------------
# Phi-accrual failure detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DetectorPolicy:
    """Heartbeat failure-detection knobs.

    Attributes
    ----------
    heartbeat_interval:
        Simulated seconds between a healthy replica's heartbeats.
    suspect_phi:
        Accrual suspicion level at which the replica is *suspected*:
        orphans re-route and its circuit breaker opens.  ``phi = 2``
        means "the odds this silence is benign are 1 in 10^2".
    dead_phi:
        Level at which the replica is *declared dead* (autoscaler
        replacement kicks in).  Must exceed ``suspect_phi``.
    """

    heartbeat_interval: float = 2e-4
    suspect_phi: float = 2.0
    dead_phi: float = 4.0

    def __post_init__(self):
        # An infinite interval makes the suspect/dead instants
        # ``0 * inf`` = NaN, which the event heap cannot order.
        if not 0 < self.heartbeat_interval < math.inf:
            raise FleetError(
                f"heartbeat_interval must be finite and > 0, got "
                f"{self.heartbeat_interval}")
        if not self.suspect_phi > 0:
            raise FleetError(
                f"suspect_phi must be > 0, got {self.suspect_phi}")
        if not self.dead_phi > self.suspect_phi:
            raise FleetError(
                f"dead_phi ({self.dead_phi}) must exceed suspect_phi "
                f"({self.suspect_phi})")

    @property
    def suspect_delay(self):
        """Silence, in seconds, at which ``phi`` reaches
        ``suspect_phi`` (``phi(t) = t / (interval * ln 10)``)."""
        return self.suspect_phi * _LN10 * self.heartbeat_interval

    @property
    def dead_delay(self):
        return self.dead_phi * _LN10 * self.heartbeat_interval


class FailureDetector:
    """Analytic phi-accrual detector over the fleet's replicas.

    Heartbeats are implicit: a replica alive since its ``anchor`` time
    beats at ``anchor + j * interval``; the detector only needs the
    anchor to reconstruct the last beat before any crash instant.  The
    engine asks :meth:`suspect_at` / :meth:`dead_at` when a crash fires
    and schedules the corresponding events — zero per-heartbeat work.
    """

    def __init__(self, policy, num_replicas):
        self.policy = policy
        self._anchor = [0.0] * int(num_replicas)
        self.suspicions = 0
        self.deaths_declared = 0
        self.detection_delays = []

    def heartbeat(self, replica_id, clock):
        """Restart the heartbeat stream (replica up at ``clock``)."""
        self._anchor[replica_id] = float(clock)

    def last_heartbeat(self, replica_id, crash_clock):
        """Latest heartbeat at or before ``crash_clock``."""
        anchor = self._anchor[replica_id]
        interval = self.policy.heartbeat_interval
        beats = max(0, math.floor((crash_clock - anchor) / interval))
        return anchor + beats * interval

    def suspect_at(self, replica_id, crash_clock):
        """Simulated instant a crash at ``crash_clock`` is suspected;
        records the detection delay for the report."""
        last = self.last_heartbeat(replica_id, crash_clock)
        when = last + self.policy.suspect_delay
        # A heartbeat cannot be missed before the crash actually
        # happens; the suspicion follows the crash.
        when = max(when, crash_clock)
        self.detection_delays.append(when - crash_clock)
        return when

    def dead_at(self, replica_id, crash_clock):
        """Instant the same crash escalates to a death declaration."""
        last = self.last_heartbeat(replica_id, crash_clock)
        return max(last + self.policy.dead_delay, crash_clock)

    @property
    def mean_detection_delay(self):
        if not self.detection_delays:
            return None
        return ordered_sum(self.detection_delays) / len(self.detection_delays)


# ----------------------------------------------------------------------
# Circuit breaking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BreakerPolicy:
    """Per-replica circuit-breaker knobs.

    Attributes
    ----------
    reset_timeout:
        Simulated seconds an open breaker waits before letting a probe
        through (half-open).
    half_open_successes:
        Completed batches a half-open replica must serve before the
        breaker closes again.
    """

    reset_timeout: float = 2e-3
    half_open_successes: int = 2

    def __post_init__(self):
        if not self.reset_timeout > 0:
            raise FleetError(
                f"reset_timeout must be > 0, got {self.reset_timeout}")
        _check_count("half_open_successes", self.half_open_successes)


class CircuitBreaker:
    """Closed / open / half-open gate for one replica.

    The detector trips it (:meth:`trip`); completed batches heal it
    (:meth:`record_success`); the router consults :meth:`allows` —
    which is also where open lapses into half-open once
    ``reset_timeout`` has passed.
    """

    def __init__(self, policy):
        self.policy = policy
        self.state = "closed"
        self.trips = 0
        self.half_opens = 0
        self._opened_at = 0.0
        self._successes = 0

    def trip(self, clock):
        """Open the breaker (detector suspected the replica)."""
        if self.state != "open":
            self.trips += 1
        self.state = "open"
        self._opened_at = float(clock)
        self._successes = 0

    def record_success(self, clock):
        """A batch completed on this replica."""
        if self.state == "half-open":
            self._successes += 1
            if self._successes >= self.policy.half_open_successes:
                self.state = "closed"
                self._successes = 0

    def allows(self, clock):
        """Whether the router may offer this replica a request now."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if clock - self._opened_at >= self.policy.reset_timeout:
                self.state = "half-open"
                self.half_opens += 1
                return True
            return False
        return True  # half-open: probes flow until the verdict


# ----------------------------------------------------------------------
# Hedging + budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HedgePolicy:
    """Hedged-request knobs.

    Attributes
    ----------
    delay_quantile:
        Latency quantile (0, 100) of completed requests after which an
        unanswered request is hedged — the classic "defer to the p95".
    min_delay:
        Floor on the hedge delay (seconds), so early noisy quantile
        estimates cannot hedge everything.
    min_observations:
        Completed-request latencies required before hedging arms.
    """

    delay_quantile: float = 95.0
    min_delay: float = 5e-4
    min_observations: int = 20

    def __post_init__(self):
        if not 0.0 < self.delay_quantile < 100.0:
            raise FleetError(
                f"delay_quantile must be in (0, 100), got "
                f"{self.delay_quantile}")
        if not self.min_delay > 0:
            raise FleetError(
                f"min_delay must be > 0, got {self.min_delay}")
        _check_count("min_observations", self.min_observations)


@dataclass(frozen=True)
class ResiliencePolicy:
    """The fleet's resilience configuration, one knob bundle.

    Every member is optional; ``None`` disables that mechanism and the
    engine's corresponding code path never runs (the PR 7 baseline).
    ``retry_budget`` bounds crash-orphan re-routes per request; a
    request exceeding it is *dropped* (surfaced in the report), which
    caps retry amplification during a brownout.
    """

    detector: DetectorPolicy | None = field(
        default_factory=DetectorPolicy)
    breaker: BreakerPolicy | None = field(default_factory=BreakerPolicy)
    hedge: HedgePolicy | None = field(default_factory=HedgePolicy)
    retry_budget: int = 3

    def __post_init__(self):
        if not self.retry_budget >= 1:
            raise FleetError(
                f"retry_budget must be >= 1, got {self.retry_budget}")


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
class ReplicaRecovery:
    """Checkpointer-backed cache snapshots for crash recovery.

    Parameters
    ----------
    root:
        Directory for the round checkpoint: the
        :class:`~repro.faults.Checkpointer`'s two slot files,
        ``rounds.ckpt`` and ``rounds.ckpt.alt``.
    snapshot_interval:
        Simulated seconds between fleet-wide cache snapshots.

    The engine drives it: :meth:`reset` when a run starts, :meth:`save`
    with every live replica on the snapshot cadence, :meth:`restore`
    when a crashed replica rejoins.  A snapshot *round* is one commit
    holding every replica's newest state: the live replicas' fresh
    ones and, for a replica that is down, the last state collected
    while it was up.  Restoration reads the replica's entry from
    :meth:`~repro.faults.Checkpointer.load_latest`, so a round torn by
    the crash itself falls back to the previous committed round — the
    recovered cache state is always a residency the replica actually
    had, making the post-recovery hit/miss sequence deterministic.
    """

    def __init__(self, root, snapshot_interval=2e-3):
        if not snapshot_interval > 0:
            raise FleetError(
                f"snapshot_interval must be > 0, got "
                f"{snapshot_interval}")
        self.root = Path(root)
        self.snapshot_interval = float(snapshot_interval)
        self._checkpointer = Checkpointer(self.root / "rounds.ckpt")
        self.reset()

    def reset(self):
        """Start a run: zero the counters and forget every round, so a
        crash before the run's first snapshot cold-starts."""
        self._checkpointer.delete()
        self._states = {}        # replica id -> last collected state
        self.snapshots = 0
        self.recoveries = 0
        self.cold_recoveries = 0

    def save(self, *replicas, clock):
        """Snapshot the cache residency of every one of ``replicas``
        that has a cache at ``clock`` and commit them, with the
        carried states of every other replica, as one round; returns
        how many states were collected (no round without one)."""
        states = self._states
        collected = 0
        for replica in replicas:
            cache = replica.executor.cache
            if cache is not None:
                states[replica.replica_id] = cache.snapshot()
                collected += 1
        if collected:
            self._checkpointer.save({"clock": float(clock),
                                     "caches": states})
            self.snapshots += collected
        return collected

    def restore(self, replica):
        """Re-warm ``replica``'s cache from its entry in the newest
        valid round; returns whether a snapshot was applied (False =
        cold start)."""
        cache = replica.executor.cache
        if cache is None:
            return False
        self.recoveries += 1
        try:
            caches = self._checkpointer.load_latest()["caches"]
        except CheckpointError:
            caches = {}
        state = caches.get(replica.replica_id)
        if state is None:
            self.cold_recoveries += 1
            return False
        cache.restore(state)
        return True

