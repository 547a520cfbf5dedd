"""The sharded serving fleet: N replicas, one shard each, one router.

:class:`FleetEngine` is the one serving engine: it runs the serving
event loop (:class:`~repro.serve.loop.EventLoop`) over N nodes, and a
:class:`~repro.serve.engine.ServeEngine` is its 1-replica
configuration:

* each replica owns one shard of a :mod:`repro.partition` result and
  is a :class:`~repro.fleet.replica.ReplicaServer` node around its
  shard's :class:`~repro.serve.executor.BatchExecutor` (remote rows
  billed over the network);
* the ``admit`` handler is the :class:`~repro.fleet.router.Router`,
  sending every request to the owner of its seed vertex and
  spilling/failing over by penalized queue depth;
* optional queue-depth autoscaling
  (:class:`~repro.fleet.router.Autoscaler`) and crash faults (queued
  requests of a dead replica are re-routed after a
  :class:`~repro.faults.RetryPolicy` detection timeout — the serving
  reuse of the training stack's fault model);
* an optional resilience layer (:mod:`repro.fleet.resilience`):
  phi-accrual failure detection re-routing orphans at *suspicion* time
  (~1 ms) instead of the 10 ms retry timeout, per-replica circuit
  breakers, p95-delay hedged requests with first-response-wins
  cancellation, per-request retry budgets, k-replicated shard
  ownership (``replication=k``), checkpointed cache recovery, and
  straggler/slowlink windows from the fault plan's timeline
  (:meth:`~repro.faults.plan.FaultPlan.multipliers`).  Every
  mechanism defaults off; its handlers are subscribed only when it is
  configured (:meth:`_FleetRun.handlers`), so the off path runs none
  of its code.

Answers in ``precomputed`` mode are a gather from the per-vertex answer
table the shared offline pass ended with
(:meth:`~repro.serve.precompute.LayerwiseEmbeddings.answers`) —
a pure function of the queried vertex, and therefore *bit-identical*
for every fleet size on the same trace, regardless of how routing
re-batched the requests: the N-replicas-vs-1-replica invariant the
benchmark asserts.  No replica runs the model on the host; each is
still billed the embedding rows it fetches and the head's FLOPs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from numbers import Real
from operator import itemgetter

import numpy as np

from ..core.config import make_partitioner
from ..errors import FaultError, FleetError, ServingError
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..nn import no_grad
from ..partition.base import PartitionResult
from ..partition.replication import k_redundant_replication
from ..perf import ordered_sum, percentile
from ..serve.batcher import BatchPolicy
from ..serve.executor import SERVE_MODES, BatchExecutor
from ..serve.loop import (ADMIT, FAULT, RESPONSE, TIMER, EventLoop,
                          cache_hit_rates, check_trace, run_totals)
from ..serve.metrics import ServeReport, depth_fields, latency_fields
from ..serve.precompute import LayerwiseEmbeddings
from ..transfer.hardware import DEFAULT_SPEC
from .replica import ReplicaServer
from .resilience import (CircuitBreaker, FailureDetector,
                         ReplicaRecovery, ResiliencePolicy)
from .router import Autoscaler, Router
from .shards import ShardMap

__all__ = ["FleetEngine"]

#: The fault kinds a fleet schedule runs (the rest need the epoch
#: clock).
_FLEET_KINDS = ("crash", "straggler", "slowlink")

_INF = float("inf")

#: A request's fate in :attr:`_FleetRun.fate`: none yet (no entry),
#: answered, or why its last copy was lost — dropped because no replica
#: could take it or its crash re-routes ran out, or rejected by a full
#: queue.
PENDING, ANSWERED, UNROUTABLE, RETRY_BUDGET, QUEUE_FULL = range(5)

_fire_time = itemgetter(0)   # of a hedge lane entry

#: Resilience off: no detector, breakers or hedging, and a crash
#: orphan is re-routed however often its replica dies.
_NO_RESILIENCE = ResiliencePolicy(detector=None, breaker=None,
                                  hedge=None,
                                  retry_budget=float("inf"))


class FleetEngine:
    """Multi-replica online inference over one partitioned graph.

    Parameters
    ----------
    dataset, model:
        As in :class:`~repro.serve.engine.ServeEngine`.
    partition:
        Either a :class:`~repro.partition.base.PartitionResult` (its
        part count fixes the fleet size) or a partitioner name from
        :func:`~repro.core.config.make_partitioner` ("hash",
        "metis-v", ...), in which case ``num_replicas`` is required and
        the partition is computed here.
    num_replicas:
        Fleet size; only needed (and then required) when ``partition``
        is a name.
    mode, policy, max_queue, fanout, cache_policy, cache_ratio,
    warm_ratio, cache_scores, spec, seed, embeddings, deadline,
    fallback:
        As in ``ServeEngine`` — applied per replica (each replica gets
        its own cache with the same budgets; ``cache_ratio`` remains a
        fraction of the *full* row universe).  The embedding table
        (``precomputed``/``full`` mode, or the ``fallback`` path) is
        built once and shared by every replica.
    routing:
        A :class:`~repro.fleet.router.RoutingPolicy` (default:
        owner-first, no spillover).
    autoscale:
        Optional :class:`~repro.fleet.router.AutoscalePolicy`; when
        given, replicas beyond ``min_replicas`` start deactivated and
        the queue-depth signal drives the active set.
    retry:
        The :class:`~repro.faults.RetryPolicy` whose ``timeout`` models
        failure detection; default :class:`RetryPolicy()`.
    resilience:
        Optional :class:`~repro.fleet.resilience.ResiliencePolicy`
        bundling the failure detector, circuit breakers, hedging, and
        the retry budget.  ``None`` (default) is the PR 7 baseline,
        bit for bit.
    schedule:
        The fault timeline: a :class:`~repro.faults.plan.FaultPlan` or
        a spec string parsed into one, in simulated seconds with ``wN``
        naming replicas (``"crash@0.005+0.01:w0"`` takes replica 0
        down at 5 ms for 10 ms).  The fleet runs ``crash``,
        ``straggler`` and ``slowlink``; the training-only kinds
        (``halt``, ``flaky``) are a :class:`~repro.errors.FaultError`
        and a replica id beyond the fleet a
        :class:`~repro.errors.FleetError`.  A crashed replica's queued
        requests are re-routed after ``retry.timeout`` simulated
        seconds (the failure-detection delay) — or at the failure
        detector's *suspicion* instant when ``resilience`` wires one
        in — and it rejoins, empty-queued, when its down time ends;
        straggler/slowlink windows scale dispatch service times.
    recovery:
        Optional :class:`~repro.fleet.resilience.ReplicaRecovery` (or
        a directory path): snapshots every live replica's cache on a
        cadence, one commit per round; a crash then cold-starts the
        cache and recovery re-warms it from the newest valid round.
        Its rounds and counters belong to one run: every
        :meth:`run` starts it afresh.
    replication:
        Optional redundancy factor ``k``: the partition is extended via
        :func:`~repro.partition.replication.k_redundant_replication`
        so every vertex has a primary + ``k-1`` backups and the router
        fails over to a backup holder (which serves from its local
        copy) the moment the owner is unavailable.  ``k=1`` (or
        ``None``) keeps single ownership.
    """

    def __init__(self, dataset, model, partition="metis-v",
                 num_replicas=None, mode="precomputed", policy=None,
                 max_queue=None, fanout=(10, 10), cache_policy="lru",
                 cache_ratio=0.0, warm_ratio=0.0, cache_scores=None,
                 spec=None, seed=0, embeddings=None, routing=None,
                 autoscale=None, retry=None, resilience=None,
                 schedule=None, recovery=None, replication=None,
                 deadline=None, fallback=False):
        if mode not in SERVE_MODES:
            raise ServingError(
                f"unknown serve mode {mode!r}; known: {SERVE_MODES}")
        # ``nan`` passes a bare ``deadline <= 0`` test and then sheds
        # every request; a string fails it with an untyped TypeError.
        if deadline is not None and (not isinstance(deadline, Real)
                                     or not deadline > 0):
            raise ServingError(
                f"deadline must be a positive number, got {deadline!r}")
        if fallback and mode != "sampled":
            raise ServingError(
                "fallback degradation only applies to 'sampled' mode "
                f"(mode {mode!r} already serves from the table)")
        if fallback and deadline is None:
            raise ServingError(
                "fallback degradation needs a deadline to degrade "
                "against")
        if isinstance(partition, PartitionResult):
            if num_replicas is not None \
                    and num_replicas != partition.num_parts:
                raise FleetError(
                    f"num_replicas={num_replicas} but the partition "
                    f"has {partition.num_parts} parts")
        else:
            if num_replicas is None:
                raise FleetError(
                    "num_replicas is required when partition is a "
                    "method name")
            partition = make_partitioner(partition).partition(
                dataset.graph, num_replicas, split=dataset.split,
                rng=np.random.default_rng(int(seed)))
        if replication is not None:
            if not 1 <= int(replication) <= partition.num_parts:
                raise FleetError(
                    f"replication must be in [1, {partition.num_parts}]"
                    f" (the fleet size), got {replication}")
            if int(replication) > 1:
                partition = k_redundant_replication(partition,
                                                    int(replication))
        self.dataset = dataset
        self.model = model
        self.mode = mode
        self.policy = policy or BatchPolicy()
        self.max_queue = max_queue
        self.spec = spec or DEFAULT_SPEC
        self.seed = int(seed)
        self.deadline = None if deadline is None else float(deadline)
        self.fallback = bool(fallback)
        self.shards = ShardMap(partition, dataset.graph)
        self.num_replicas = self.shards.num_shards
        self.routing = routing
        self.autoscale = autoscale
        self.retry = retry or RetryPolicy()
        if resilience is not None \
                and not isinstance(resilience, ResiliencePolicy):
            raise FleetError(
                f"resilience must be a ResiliencePolicy, got "
                f"{type(resilience).__name__}")
        self.resilience = resilience
        plan = FaultPlan() if schedule is None else schedule
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        if not isinstance(plan, FaultPlan):
            raise FaultError(
                f"schedule needs a FaultPlan or spec string, got "
                f"{type(plan).__name__}")
        for event in plan:
            if event.kind not in _FLEET_KINDS:
                raise FaultError(
                    f"fault {event.describe()!r} is training-only "
                    f"(epoch clock); the fleet runs {_FLEET_KINDS} — "
                    f"use `repro train --faults` for the rest")
            if event.worker is not None \
                    and event.worker >= self.num_replicas:
                raise FleetError(
                    f"fault {event.describe()!r} names replica "
                    f"{event.worker}; the fleet has {self.num_replicas}")
        self.schedule = plan
        self.recovery = None
        if recovery is not None:
            self.recovery = recovery \
                if isinstance(recovery, ReplicaRecovery) \
                else ReplicaRecovery(recovery)

        # One offline table, shared: the fleet precomputes embeddings
        # once and replicates them (they are read-only), so the offline
        # cost is charged once, not per replica.
        self.embeddings = embeddings
        if self.embeddings is None and (mode != "sampled" or fallback):
            self.embeddings = LayerwiseEmbeddings(
                model, dataset.graph, dataset.features)
        self._executor_kwargs = dict(
            mode=mode, fanout=fanout, cache_policy=cache_policy,
            cache_ratio=cache_ratio, warm_ratio=warm_ratio,
            cache_scores=cache_scores, spec=self.spec,
            embeddings=self.embeddings, need_embeddings=self.fallback)
        # Built here so a bad cache configuration fails at
        # construction; every run starts from fresh ones.
        self._build_replicas()

    def _build_replicas(self):
        """Fresh replicas (cold caches, empty queues) for one run."""
        self.replicas = [
            ReplicaServer(
                i, self.shards,
                BatchExecutor(self.shards, i, self.dataset, self.model,
                              **self._executor_kwargs),
                policy=self.policy, max_queue=self.max_queue,
                seed=self.seed, deadline=self.deadline,
                fallback=self.fallback)
            for i in range(self.num_replicas)]
        return self.replicas

    # ------------------------------------------------------------------
    # The simulated-time fleet run
    # ------------------------------------------------------------------
    def run(self, requests):
        """Serve a request trace (sorted by arrival); returns a
        :class:`~repro.serve.metrics.ServeReport`.  A request for a
        vertex the graph does not have, or a trace out of arrival
        order, is a :class:`ServingError` before anything is served.
        Every run starts from fresh replicas (cold caches, empty
        queues), so running one engine twice reports the same run."""
        run = _FleetRun(self, requests)
        with no_grad():
            run.loop.run(run.handlers())
        return self._report(run)

    @staticmethod
    def _hedge_delay(hedge, latencies):
        """Hedge delay from the observed latency quantile, or ``None``
        while too few completions are on record to estimate it.
        ``latencies`` must read as an ascending list (the run's
        :class:`_LatencyRanks`, or a list kept sorted); the run re-reads
        it for a request's first copy only when a latency has been
        added since the last read."""
        if len(latencies) < hedge.min_observations:
            return None
        return max(hedge.min_delay,
                   percentile(latencies, hedge.delay_quantile,
                              presorted=True))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, run):
        replicas, router, autoscaler = \
            run.replicas, run.router, run.autoscaler
        executors = [r.executor for r in replicas]
        responses = run.loop.responses
        # Each replica's latencies become float64 once.  Run-wide: those
        # columns in replica order (the order is part of
        # ``latency_mean``'s bits) — except under hedging, where they
        # also hold the twins that lost the race and the run's record
        # of the winners is per answered request, summed in ascending
        # order.
        columns = [np.array(r.latencies, dtype=np.float64)
                   for r in replicas]
        latencies = np.sort(np.array(run.latencies, dtype=np.float64)) \
            if run.hedge_policy is not None else np.concatenate(columns)
        totals = run_totals(responses, self.dataset.labels)
        completed = totals["completed"]

        zero_remote = sum(r.zero_remote_completed for r in replicas)
        local_rows = sum(e.local_rows for e in executors)
        remote_rows = sum(e.remote_rows for e in executors)
        total_rows = local_rows + remote_rows
        num_batches = sum(r.num_batches for r in replicas)
        mean_batch_size = sum(r.completed for r in replicas) \
            / num_batches if num_batches else 0.0
        hit_rate, warm_rate, tiered = cache_hit_rates(
            e.cache for e in executors)
        lost = run.lost()
        dropped = [rid for rid, why in lost if why != QUEUE_FULL]

        # A schedule alone (crash/straggler windows) adds no counters
        # of its own: the field stays None on a baseline run.
        resilience_stats = None
        if self.resilience is not None or self.recovery is not None \
                or self.shards.replicated:
            resilience_stats = run.resilience_stats()
        return ServeReport(
            mode=self.mode,
            policy=self.policy.describe(),
            partitioner=self.shards.partition.method,
            num_replicas=self.num_replicas,
            num_requests=run.num_requests,
            rejected=len(lost),
            spillovers=router.spillovers,
            failovers=router.failovers,
            requeued=run.requeued,
            **totals,
            **latency_fields(latencies),
            num_batches=num_batches,
            mean_batch_size=mean_batch_size,
            batch_occupancy=(mean_batch_size
                             / self.policy.max_batch_size),
            **depth_fields(replicas),
            bp_seconds=ordered_sum(r.bp_seconds for r in replicas),
            dt_seconds=ordered_sum(r.dt_seconds for r in replicas),
            nn_seconds=ordered_sum(r.nn_seconds for r in replicas),
            remote_seconds=ordered_sum(e.remote_seconds
                                       for e in executors),
            precompute_seconds=executors[0].precompute_seconds,
            routing_locality=(zero_remote / completed
                              if completed else 1.0),
            remote_row_fraction=(remote_rows / total_rows
                                 if total_rows else 0.0),
            cache_policy=executors[0].cache_policy,
            cache_ratio=executors[0].cache_ratio,
            warm_ratio=executors[0].warm_ratio,
            cache_hit_rate=hit_rate,
            hot_hit_rate=hit_rate if tiered else 0.0,
            warm_hit_rate=warm_rate,
            tier_seconds={tier: ordered_sum(e.tier_seconds[tier]
                                            for e in executors)
                          for tier in ("hot", "warm", "cold")}
            if tiered else {},
            deadline=self.deadline or 0.0,
            shed=sum(r.shed for r in replicas),
            degraded=sum(r.degraded for r in replicas),
            deadline_misses=(int(np.count_nonzero(
                responses.latencies() > self.deadline))
                if self.deadline is not None else 0),
            scale_events=list(autoscaler.events)
            if autoscaler is not None else [],
            replicas_active_max=autoscaler.active_max
            if autoscaler is not None else self.num_replicas,
            dropped=len(dropped),
            dropped_request_ids=dropped,
            replication_factor=self.shards.replication_factor(),
            resilience=resilience_stats,
            replicas=[r.report(column)
                      for r, column in zip(replicas, columns)],
            responses=responses,
        )


class _LatencyRanks:
    """A run's latency list, appended to as answers land, read as the
    ascending list it would be if kept sorted — at the ranks around one
    percentile: ``percentile(ranks, q, presorted=True)`` is
    ``percentile(sorted(values), q)``, bit for bit.

    The values sit in two heaps: the smallest in a max-heap (``_below``,
    negated, which is exact) and the rest in a min-heap (``_above``),
    every value of the first at most every value of the second.  A read
    first pushes the values appended since the last one (one
    ``heappush`` each, where a sorted list cost an ``insort`` whose
    memmove grows with the list), then moves values across until
    ``_below`` holds the ``i + 1`` smallest: ``[i]`` is its largest and
    ``[i + 1]`` the smallest of ``_above``.  A percentile read after a
    few more answers moves one or two.
    """

    __slots__ = ("_values", "_seen", "_below", "_above")

    def __init__(self, values):
        self._values = values
        self._seen = 0
        self._below, self._above = [], []

    def __len__(self):
        return len(self._values)

    def __getitem__(self, rank):
        below, above = self._below, self._above
        fresh = self._values[self._seen:]
        if fresh:
            self._seen += len(fresh)
            for value in fresh:
                if below and value < -below[0]:
                    heappush(below, -value)
                else:
                    heappush(above, value)
        size = len(below)
        if rank == size:
            return above[0]
        while size > rank + 1:
            heappush(above, -heappop(below))
            size -= 1
        while size <= rank:
            heappush(below, -heappop(above))
            size += 1
        return -below[0]


class _FleetRun:
    """The state of one :meth:`FleetEngine.run` and its event handlers.

    Built fresh per run (cold caches, empty queues).  Every handler is
    a method that assumes its policy exists; :meth:`handlers`
    subscribes it only when the engine configures that policy, so
    nothing tests for a feature while the loop runs.

    What the run knows of each request sits in maps keyed by request
    id to an int, not in a container per request: its ``fate`` and,
    under hedging, the replica its first copy was ``routed`` to.  Only
    the rare second copy — a crash re-route or the hedge — enters a
    map of lists, :attr:`later_copies`.
    """

    def __init__(self, engine, requests):
        requests = list(requests)
        check_trace(requests, engine.dataset.num_vertices)
        self.num_requests = len(requests)
        self.replicas = engine._build_replicas()
        resil = engine.resilience or _NO_RESILIENCE
        self.detector = FailureDetector(
            resil.detector, engine.num_replicas) \
            if resil.detector is not None else None
        self.breakers = [CircuitBreaker(resil.breaker)
                         for _ in self.replicas] \
            if resil.breaker is not None else None
        self.hedge_policy = resil.hedge
        self.retry_budget = resil.retry_budget
        self.retry_timeout = engine.retry.timeout
        self.recovery = engine.recovery
        self.router = Router(engine.shards, self.replicas,
                             engine.routing, breakers=self.breakers)
        self.autoscaler = Autoscaler(engine.autoscale, self.replicas) \
            if engine.autoscale is not None else None

        self.requeued = 0
        # request_id -> its fate code, absent while PENDING, in the
        # order each request was first lost or answered.  Counted per
        # request, not per copy: a hedged request is lost iff no copy
        # was answered, and ANSWERED is written only under hedging,
        # where first response wins (an unhedged run answers a request
        # at most once, and the ledger holds it).
        self.fate = {}
        self.attempts = {}       # request_id -> crash re-route count
        # Hedging state (untouched when hedging is off).
        self.routed = {}         # request_id -> its first copy's replica
        self.later_copies = {}   # request_id -> replicas of later copies
        self.hedge_target = {}   # request_id -> the hedge copy's replica
        self.latencies = []      # completed latencies, in answer order
        self._ranks = _LatencyRanks(self.latencies)   # ... read sorted
        self._delay = None       # the hedge delay at ...
        self._delay_observed = -1    # ... this many latencies
        # The hedge lane: one ``(fire_time, request)`` per armed first
        # copy, in fire-time order and arming order within a time.
        # ``clock + delay`` rarely runs backwards, so the lane is a
        # FIFO; a copy due before the tail goes to its place by
        # bisection.  The loop holds a ``hedges`` event at each finite
        # time in ``_armed_times`` (a heap of different times over an
        # ``inf`` that never fires), the earliest of which is at or
        # before the lane's head whenever the lane holds anything.
        self._lane = deque()
        self._armed_times = [_INF]
        self.hedges_launched = 0
        self.hedges_won = 0
        self.hedges_wasted = 0
        self.hedges_cancelled = 0

        self.loop = EventLoop(self.replicas, requests,
                              engine.schedule.multipliers)
        # A crash takes the cache down with the process only when the
        # recovery layer can re-warm it.
        self.cold_crashes = self.recovery is not None
        for time, replica_id, down in engine.schedule.crashes:
            self.loop.schedule(time, FAULT, "crash", (replica_id, down))
        if self.recovery is not None:
            self.recovery.reset()
            self.loop.schedule(self.recovery.snapshot_interval, FAULT,
                               "snapshot")

    def handlers(self):
        """One handler per event kind per configured policy (list
        order is call order)."""
        on = {"crash": [self.on_crash], "recover": [self.on_recover],
              "admit": [self.on_admit], "batch": [self.loop.collect]}
        if self.detector is not None:
            on["crash"] = [self.on_crash_detected]
            on["recover"].append(self.restart_heartbeat)
            on["suspect"] = [self.on_suspect]
            on["dead"] = [self.on_dead]
            if self.breakers is not None:
                on["suspect"].append(self.trip_breaker)
            if self.autoscaler is not None:
                on["dead"].append(self.replace_dead)
        if self.breakers is not None:
            on["batch"].insert(0, self.heal_breaker)
        if self.recovery is not None:
            on["recover"].append(self.rewarm)
            on["snapshot"] = [self.on_snapshot]
        if self.hedge_policy is not None:
            # With hedging a response only "arrives" at its completion
            # instant, so a hedge fired while the primary is still in
            # flight can win.
            on["admit"] = [self.on_admit_hedged]
            on["batch"][-1] = self.defer_responses
            on["response"] = [self.on_response]
            on["hedges"] = [self.on_hedges]
            # One timer event per request, the scheduling the lane
            # replaced (tests/fleet/_chaos_oracle.py still uses it).
            on["hedge"] = [self.on_hedge]
        if self.autoscaler is not None:
            on["admit"].append(self.rescale)
            on["dispatched"] = [self.settle_drains]
        return on

    # -- FAULT phase ---------------------------------------------------
    def on_crash(self, event):
        """Without a detector the router notices a dead node only after
        the retry policy's detection timeout."""
        if self.replicas[event[0]].alive:
            self._fail(event, self.loop.clock + self.retry_timeout)

    def on_crash_detected(self, event):
        """The detector suspects the silence an order of magnitude
        before the retry timeout would, then escalates to a death
        declaration."""
        replica_id = event[0]
        if self.replicas[replica_id].alive:
            loop = self.loop
            due = self.detector.suspect_at(replica_id, loop.clock)
            self._fail(event, due)
            loop.schedule(due, FAULT, "suspect", replica_id)
            loop.schedule(self.detector.dead_at(replica_id, loop.clock),
                          FAULT, "dead", replica_id)

    def _fail(self, event, due):
        """Take a live replica down: its queued requests re-enter
        routing at ``due`` (when the failure is noticed) and it
        rejoins, empty-queued, when its down time ends."""
        replica_id, down = event
        loop = self.loop
        orphans = self.replicas[replica_id].crash(
            loop.clock, down, cold=self.cold_crashes)
        for orphan in orphans:
            count = self.attempts.get(orphan.request_id, 0) + 1
            self.attempts[orphan.request_id] = count
            if count > self.retry_budget:
                # Retry budget exhausted: bound the amplification,
                # drop the request.
                self._lose(orphan.request_id, RETRY_BUDGET)
                continue
            loop.schedule(due, ADMIT, "admit", orphan)
        self.requeued += len(orphans)
        loop.schedule(loop.clock + down, FAULT, "recover", replica_id)

    def _lose(self, request_id, why):
        """A copy of the request is gone; the request is lost with it
        unless another copy has been or will be answered.  Its fate
        says why its last copy was lost; a rewrite keeps its place in
        ``fate``, where it was first lost."""
        fate = self.fate
        if fate.get(request_id) != ANSWERED:
            fate[request_id] = why

    def lost(self):
        """``[(request_id, fate)]`` of every request no copy of which
        was answered, in the order each was first lost."""
        return [(rid, why) for rid, why in self.fate.items()
                if why != ANSWERED]

    def _copies(self, request_id):
        """The replicas that were sent a copy of ``request_id``, first
        copy first (a hedged run only)."""
        return [self.routed[request_id],
                *self.later_copies.get(request_id, ())]

    def on_recover(self, replica_id):
        self.replicas[replica_id].recover(self.loop.clock)

    def restart_heartbeat(self, replica_id):
        self.detector.heartbeat(replica_id, self.loop.clock)

    def rewarm(self, replica_id):
        """Re-warm the cold cache from the newest valid round (falls
        back to the previous one if the last save was torn)."""
        self.recovery.restore(self.replicas[replica_id])

    def on_suspect(self, replica_id):
        if not self.replicas[replica_id].alive:
            self.detector.suspicions += 1

    def trip_breaker(self, replica_id):
        if not self.replicas[replica_id].alive:
            self.router.trip(replica_id, self.loop.clock)

    def on_dead(self, replica_id):
        if not self.replicas[replica_id].alive:
            self.detector.deaths_declared += 1

    def replace_dead(self, replica_id):
        if not self.replicas[replica_id].alive:
            self.autoscaler.replace(self.loop.clock, replica_id)

    def on_snapshot(self, _):
        self.recovery.save(*(r for r in self.replicas if r.alive),
                           clock=self.loop.clock)
        if not self.loop.draining:
            self.loop.schedule(
                self.loop.clock + self.recovery.snapshot_interval,
                FAULT, "snapshot")

    # -- RESPONSE phase (hedging only) ---------------------------------
    def on_response(self, row):
        """One batch's responses land, in batch order: the first copy
        back wins, a later twin is wasted work, and the winner cancels
        any copy still queued elsewhere.  The winners go into the
        ledger, the whole row when every copy in it won."""
        fate, hedge_target = self.fate, self.hedge_target
        latencies, completion, replica = \
            self.latencies, row.completion, row.replica
        wasted = []
        for position, request in enumerate(row.requests):
            rid = request.request_id
            if fate.get(rid) == ANSWERED:
                wasted.append(position)
                continue
            fate[rid] = ANSWERED     # an earlier copy may have been lost
            latencies.append(completion - request.arrival)
            if rid not in hedge_target:
                continue
            if replica == hedge_target[rid]:
                self.hedges_won += 1
            for other in self._copies(rid):
                if other != replica and self.replicas[other].cancel(rid):
                    self.hedges_cancelled += 1
        if wasted:
            self.hedges_wasted += len(wasted)
            row = row.without(wasted)
        self.loop.responses.add(row)

    # -- ADMIT phase ---------------------------------------------------
    def on_admit(self, request):
        """Route one arrival or re-submission; returns the replica that
        queued it, or ``None`` when it was rejected."""
        try:
            replica, _ = self.router.route(request, self.loop.clock)
        except FleetError:
            # Every replica is down: open-loop load cannot wait for
            # the cluster — the request is lost (dropped, and surfaced
            # as such in the report).
            self._lose(request.request_id, UNROUTABLE)
            return None
        if not replica.submit(request):
            self._lose(request.request_id, QUEUE_FULL)
            return None
        return replica

    def on_admit_hedged(self, request):
        """:meth:`on_admit`, remembering who holds a copy and putting a
        request's first copy on the hedge lane; a copy due before the
        lane's armed event arms an earlier one."""
        rid = request.request_id
        if self.fate.get(rid) == ANSWERED:
            return  # a hedge twin already answered it
        replica = self.on_admit(request)
        if replica is None:
            return
        routed = self.routed
        if rid in routed:
            self.later_copies.setdefault(rid, []).append(
                replica.replica_id)
            return
        routed[rid] = replica.replica_id
        # The delay is a function of ``latencies``, which only grows:
        # recomputed only once it has.
        observed = len(self.latencies)
        if observed != self._delay_observed:
            self._delay_observed = observed
            self._delay = FleetEngine._hedge_delay(self.hedge_policy,
                                                   self._ranks)
        if self._delay is not None:
            due = self.loop.clock + self._delay
            lane = self._lane
            if lane and due < lane[-1][0]:
                # The delay fell by more than the clock moved: after
                # every copy due at or before this one.
                lane.insert(bisect_right(lane, due, key=_fire_time),
                            (due, request))
            else:
                lane.append((due, request))
            if due < self._armed_times[0]:
                self._arm(due)

    def rescale(self, _request):
        self.autoscaler.evaluate(self.loop.clock)

    # -- TIMER phase (hedging only) ------------------------------------
    def _arm(self, time):
        """Queue a ``hedges`` event at ``time``, now the earliest."""
        self.loop.schedule(time, TIMER, "hedges")
        heappush(self._armed_times, time)

    def on_hedges(self, _):
        """The hedge lane's event: every timer due now goes to
        :meth:`on_hedge`, in the order per-request timers would have
        fired (fire time, then arming order).  The answered requests at
        the head are then dropped without their instants being visited,
        and an event is armed at the new head unless one is already
        queued at or before it.  The instants skipped are ones where
        :meth:`on_hedge` would have done nothing and scheduled
        nothing."""
        lane, clock = self._lane, self.loop.clock
        armed = self._armed_times
        heappop(armed)           # this event's own time: ``clock``
        while lane and lane[0][0] <= clock:
            self.on_hedge(lane.popleft()[1])
        fate = self.fate
        while lane and fate.get(lane[0][1].request_id) == ANSWERED:
            lane.popleft()
        if lane and lane[0][0] < armed[0]:
            self._arm(lane[0][0])

    def on_hedge(self, request):
        """Launch a second copy of a still-unanswered request on a
        replica not already holding one (opportunistic — silently
        skipped when impossible).  Handed each lane timer as it falls
        due by :meth:`on_hedges`; an answered request costs nothing
        here and schedules nothing."""
        rid = request.request_id
        if self.fate.get(rid) == ANSWERED:
            return
        routed = self.router.route_hedge(
            request, set(self._copies(rid)), now=self.loop.clock)
        if routed is None:
            return
        replica, _ = routed
        if not replica.submit(request):
            return
        self.later_copies.setdefault(rid, []).append(replica.replica_id)
        self.hedge_target[rid] = replica.replica_id
        self.hedges_launched += 1

    # -- dispatch phase ------------------------------------------------
    def heal_breaker(self, dispatched):
        self.breakers[dispatched[0].node_id].record_success(
            self.loop.clock)

    def defer_responses(self, dispatched):
        """One ``response`` event per batch, not one per response: the
        batch's responses share a completion instant, one event each
        would take consecutive ``seq`` numbers (nothing can sort
        between them), and :meth:`on_response` schedules nothing — so
        landing them together, in batch order, is the same run."""
        row = dispatched[1]
        if row.requests:
            self.loop.schedule(row.completion, RESPONSE, "response", row)

    def settle_drains(self, _):
        self.autoscaler.finalize_drains(self.loop.clock)

    # -- report --------------------------------------------------------
    def resilience_stats(self):
        detector, breakers, recovery = \
            self.detector, self.breakers, self.recovery
        return {
            "suspicions": detector.suspicions if detector else 0,
            "deaths_declared":
                detector.deaths_declared if detector else 0,
            "mean_detection_delay":
                detector.mean_detection_delay if detector else None,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedges_wasted": self.hedges_wasted,
            "hedges_cancelled": self.hedges_cancelled,
            "breaker_trips":
                sum(b.trips for b in breakers) if breakers else 0,
            "breaker_half_opens":
                sum(b.half_opens for b in breakers) if breakers else 0,
            "backup_routed": self.router.backup_routed,
            "retry_budget_drops":
                list(self.fate.values()).count(RETRY_BUDGET),
            "snapshots": recovery.snapshots if recovery else 0,
            "recoveries": recovery.recoveries if recovery else 0,
            "cold_recoveries":
                recovery.cold_recoveries if recovery else 0,
        }
