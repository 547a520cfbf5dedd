"""Partition-aware request routing and queue-depth autoscaling.

The router is the fleet's front door.  Its placement rule is the
serving-side reading of the paper's partitioning findings: features
live where the partitioner put them, so the cheapest node to answer a
query about vertex ``v`` is the one owning ``v``'s shard — any other
node pays remote fetches for every row the local cache cannot cover.
The router therefore dispatches to the owner until the owner's queue
says otherwise:

* **owner-first** — the owning replica, whenever it is accepting and
  its queue is below ``spill_threshold``;
* **spillover** — otherwise the accepting replica minimizing
  ``queue_depth + remote_penalty`` (the penalty prices the remote
  fetches a non-owner will incur, in queue-slot units; the owner
  itself competes without penalty, so a merely-busy owner usually
  still wins);
* **failover** — a dead/draining owner is just the spillover case with
  the owner out of the candidate set; if *no* replica is accepting the
  request is unroutable and the fleet engine counts it rejected.

Autoscaling runs on the same queue-depth signal with hysteresis: scale
up when the mean depth across active replicas crosses
``high_watermark``, scale down below ``low_watermark``, never twice
within ``cooldown`` simulated seconds.  Scale-down drains: the victim
stops accepting, serves out its queue, then deactivates — its shard is
served remotely by the survivors until load returns.  Shards are
fixed; only the *active replica set* changes.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from ..errors import FleetError, SanitizerError
from ..perf import FLAGS
from .resilience import _check_count

__all__ = ["RoutingPolicy", "Router", "AutoscalePolicy", "Autoscaler"]


@dataclass(frozen=True)
class RoutingPolicy:
    """The two routing knobs.

    Attributes
    ----------
    spill_threshold:
        Owner queue depth at which requests overflow to other replicas;
        ``None`` disables spillover (strict owner routing — requests
        wait however long the owner's queue is).
    remote_penalty:
        Cost, in queue-depth units, a non-owner replica is charged when
        competing for a spilled request — the queueing-time equivalent
        of the remote rows it would fetch.
    """

    spill_threshold: int | None = None
    remote_penalty: float = 8.0

    def __post_init__(self):
        # A NaN threshold fails every ``depth < threshold``: each
        # request the owner would admit goes down the spill path.
        if self.spill_threshold is not None:
            _check_count("spill_threshold", self.spill_threshold)
        if not self.remote_penalty >= 0:
            raise FleetError(
                f"remote_penalty must be >= 0, got "
                f"{self.remote_penalty}")


class Router:
    """Stateless-per-request dispatcher over the fleet's replicas.

    Parameters
    ----------
    shards:
        The fleet's :class:`~repro.fleet.shards.ShardMap`; the router
        holds its :attr:`~repro.fleet.shards.ShardMap.owner_of` list.
    replicas:
        ``replicas[i]`` serves shard ``i``.  The router reads a
        replica's queue depth as ``len(replica._queue)`` and counts
        each pick on it (``owner_routed`` / ``spill_routed``).
    policy:
        A :class:`RoutingPolicy`; default is owner-first with no
        spillover.
    breakers:
        Optional per-replica
        :class:`~repro.fleet.resilience.CircuitBreaker` list.  The
        router owns the ids of the open ones: breakers are tripped
        through :meth:`trip`, and every :meth:`~CircuitBreaker.allows`
        that lapses one to half-open is asked here.
    """

    def __init__(self, shards, replicas, policy=None, breakers=None):
        if len(replicas) != shards.num_shards:
            raise FleetError(
                f"{len(replicas)} replicas for {shards.num_shards} "
                f"shards; the fleet needs exactly one per shard")
        self.shards = shards
        self.replicas = list(replicas)
        self._owner_of = shards.owner_of
        self.policy = policy or RoutingPolicy()
        self.breakers = breakers
        self._open = []          # ids of the open breakers, ascending
        self._sanitize = FLAGS.sanitize
        self._replicated = getattr(shards, "replicated", False)
        self.spillovers = 0
        self.failovers = 0
        self.backup_routed = 0

    def trip(self, replica_id, now):
        """Open ``replica_id``'s breaker (the detector suspects it)."""
        self.breakers[replica_id].trip(now)
        if replica_id not in self._open:
            insort(self._open, replica_id)

    def _lapses(self, replica_id, now):
        """Ask the open breaker of ``replica_id``; whether it lapsed
        into half-open (and left the open set)."""
        if self.breakers[replica_id].allows(now):
            self._open.remove(replica_id)
            return True
        return False

    def _admits(self, replica, now):
        """Accepting, and (when circuit breakers are wired in) the
        replica's breaker lets a request through at ``now`` — only an
        open breaker needs asking (:meth:`CircuitBreaker.allows` is
        ``True`` without side effect otherwise)."""
        if not replica.accepting:
            return False
        rid = replica.replica_id
        return rid not in self._open or self._lapses(rid, now)

    def _check_open(self):
        """Sanitizer: the open set must be what the breakers say."""
        derived = [rid for rid, breaker in enumerate(self.breakers)
                   if breaker.state == "open"]
        if derived != self._open:
            raise SanitizerError(
                f"router holds open breakers {self._open} but the "
                f"breakers say {derived}; a breaker was tripped or "
                f"lapsed outside Router.trip / Router._admits")

    def _check_accepting(self):
        """Sanitizer: every replica's kept ``accepting`` must be what
        its flags say."""
        for r in self.replicas:
            if r.accepting != (r.alive and r.active and not r.draining):
                raise SanitizerError(
                    f"replica {r.replica_id} holds accepting="
                    f"{r.accepting} but alive={r.alive}, active="
                    f"{r.active}, draining={r.draining}; a flag was "
                    f"written without setting accepting again")

    def _candidates(self, now):
        return [r for r in self.replicas if self._admits(r, now)]

    def _backups(self, vertex):
        """Ids of the non-owner replicas holding ``vertex``'s row —
        none unless the partition replicates rows."""
        if self._replicated:
            return self.shards.backups(vertex)
        return ()

    def _cheapest(self, candidates, owner, vertex):
        """The accepting replica minimizing penalized queue depth
        (owner exempt from the penalty; ties break toward lower id).
        With a replicated partition, backup holders of ``vertex`` are
        also exempt — their copy of the row makes them as cheap as the
        owner."""
        penalty = self.policy.remote_penalty
        backups = self._backups(vertex)

        def cost(r):
            free = r is owner or r.replica_id in backups
            return (len(r._queue) + (0.0 if free else penalty),
                    r.replica_id)
        return min(candidates, key=cost)

    @staticmethod
    def _picked(chosen, owner):
        """Count the pick on ``chosen``; returns ``(chosen,
        is_owner)``.  (A failover never picks the owner: it is not
        admitting at ``now``.)"""
        if chosen is owner:
            chosen.owner_routed += 1
            return chosen, True
        chosen.spill_routed += 1
        return chosen, False

    def route(self, request, now=0.0):
        """Pick ``(replica, is_owner)`` for one request and count the
        pick on the replica (``owner_routed`` when it owns the vertex,
        ``spill_routed`` otherwise).  Raises
        :class:`~repro.errors.FleetError` when no replica is accepting
        (every node crashed or drained away) — the error message names
        the request id so the engine can surface dropped requests.

        The owner is asked first; the candidate list is only built to
        spill or fail over.  With circuit breakers wired in, every
        *open* breaker of an *accepting* replica is polled, in id
        order, before the owner-first return:
        :meth:`CircuitBreaker.allows` is where an open breaker lapses
        into half-open, so *when* it is polled is part of the run.  A
        closed or half-open breaker's answer has no side effect, and a
        replica that is not accepting was never asked (its breaker must
        not lapse while it is down), so neither is polled; with no
        breaker open, none is asked.  (A second poll at the same
        ``now`` returns the same answer and changes nothing.)  Under
        ``FLAGS.sanitize`` every replica's ``accepting`` and the open
        set are re-derived first."""
        vertex = request.vertex
        owner = self.replicas[self._owner_of[vertex]]
        if self._sanitize:
            self._check_accepting()
            if self.breakers is not None:
                self._check_open()
        if self.breakers is None:
            owner_admits = owner.accepting
        else:
            opened = self._open
            if opened:
                for rid in tuple(opened):
                    if self.replicas[rid].accepting:
                        self._lapses(rid, now)
            owner_admits = owner.accepting \
                and owner.replica_id not in opened

        if owner_admits:
            threshold = self.policy.spill_threshold
            if threshold is None or len(owner._queue) < threshold:
                owner.owner_routed += 1
                return owner, True
            chosen = self._cheapest(self._candidates(now), owner, vertex)
            if chosen is not owner:
                self.spillovers += 1
            return self._picked(chosen, owner)

        # Owner down, draining, or circuit-broken: failover to the
        # cheapest survivor — a backup holder of the vertex when the
        # partition replicates rows (it serves from its local copy).
        candidates = self._candidates(now)
        if not candidates:
            raise FleetError(
                f"request {request.request_id} is unroutable: no "
                f"replica is accepting")
        chosen = self._cheapest(candidates, owner, vertex)
        self.failovers += 1
        if chosen.replica_id in self._backups(vertex):
            self.backup_routed += 1
        return self._picked(chosen, owner)

    def route_hedge(self, request, exclude, now=0.0):
        """Route a hedge copy of ``request`` to a replica *not* in
        ``exclude`` (the ids already holding a copy), counted as in
        :meth:`route`; returns ``(replica, is_owner)`` or ``None`` when
        no distinct replica can take it (never raises — a hedge is
        opportunistic)."""
        owner = self.replicas[self._owner_of[request.vertex]]
        candidates = [r for r in self.replicas
                      if r.replica_id not in exclude
                      and self._admits(r, now)]
        if not candidates:
            return None
        chosen = self._cheapest(candidates, owner, request.vertex)
        if chosen.replica_id in self._backups(request.vertex):
            self.backup_routed += 1
        return self._picked(chosen, owner)


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth autoscaling with hysteresis.

    Attributes
    ----------
    min_replicas:
        Floor on the active replica set (also the initial size:
        replicas ``min_replicas..k-1`` start deactivated).
    high_watermark, low_watermark:
        Mean queue depth (over active, alive replicas) above which the
        fleet scales up / below which it scales down.  Keeping
        ``high > low`` is the hysteresis band preventing flapping.
    cooldown:
        Minimum simulated seconds between scaling decisions.
    """

    min_replicas: int = 1
    high_watermark: float = 24.0
    low_watermark: float = 2.0
    cooldown: float = 0.05

    def __post_init__(self):
        if self.min_replicas < 1:
            raise FleetError(
                f"min_replicas must be >= 1, got {self.min_replicas}")
        if not self.low_watermark >= 0:
            raise FleetError(
                f"low_watermark must be >= 0, got {self.low_watermark}")
        if not self.high_watermark > self.low_watermark:
            raise FleetError(
                f"high_watermark ({self.high_watermark}) must exceed "
                f"low_watermark ({self.low_watermark})")
        if not self.cooldown >= 0:
            raise FleetError(
                f"cooldown must be >= 0, got {self.cooldown}")


class Autoscaler:
    """Drives the active replica set from the queue-depth signal.

    The fleet engine calls :meth:`evaluate` after admitting arrivals
    and :meth:`finalize_drains` after dispatching, both with the
    simulated clock.  Every decision lands in ``events`` as
    ``(time, action, replica_id, mean_depth)`` for the report.
    """

    def __init__(self, policy, replicas):
        self.policy = policy
        self.replicas = list(replicas)
        if policy.min_replicas > len(self.replicas):
            raise FleetError(
                f"min_replicas {policy.min_replicas} exceeds the "
                f"fleet size {len(self.replicas)}")
        for replica in self.replicas[policy.min_replicas:]:
            replica.active = False
        self.events = []
        self._last_change = 0.0
        self.active_max = policy.min_replicas

    def _activate(self, clock, action, detail):
        """Activate the lowest-id live standby, recorded as ``(clock,
        action, replica_id, detail)``; returns whether there was one."""
        for replica in self.replicas:
            if replica.alive and not replica.active:
                replica.active = True
                replica.draining = False
                self.events.append(
                    (clock, action, replica.replica_id, detail))
                self.active_max = max(
                    self.active_max,
                    sum(1 for r in self.replicas if r.active))
                return True
        return False

    def evaluate(self, clock):
        """One scaling decision at simulated time ``clock`` (at most
        one replica activated or marked draining per call)."""
        live = [r for r in self.replicas if r.accepting]
        if not live:
            return
        if clock - self._last_change < self.policy.cooldown:
            return
        depth = sum(r.queue_depth for r in live) / len(live)

        if depth > self.policy.high_watermark:
            if self._activate(clock, "up", depth):
                self._last_change = clock
        elif depth < self.policy.low_watermark \
                and len(live) > self.policy.min_replicas:
            victim = live[-1]  # highest id drains first
            victim.draining = True
            self._last_change = clock
            self.events.append(
                (clock, "drain", victim.replica_id, depth))

    def replace(self, clock, dead_id):
        """Activate a standby to cover a replica declared dead by the
        failure detector; returns whether one was available.  Recorded
        as a ``"replace"`` event (fourth field = the dead replica)."""
        return self._activate(clock, "replace", float(dead_id))

    def finalize_drains(self, clock):
        """Deactivate any draining replica whose queue has emptied."""
        for replica in self.replicas:
            if replica.draining and replica.queue_depth == 0:
                replica.draining = False
                replica.active = False
                self.events.append(
                    (clock, "down", replica.replica_id, 0.0))
