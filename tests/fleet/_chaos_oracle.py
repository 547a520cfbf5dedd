"""The resilience handlers the fleet asked every question with, kept
verbatim as the oracle.

Until the fleet stopped re-asking questions whose answers had not
changed, ``Router.route`` polled every replica's circuit breaker on
every request, ``_FleetRun.defer_responses`` pushed one ``response``
event per response, ``_FleetRun.on_admit_hedged`` recomputed the hedge
delay (a percentile of every latency so far) on every first copy, and
``ShardMap.holders`` / ``backups`` ran ``flatnonzero`` over the replica
matrix on every spill and failover.  Until snapshot rounds committed
once, ``ReplicaRecovery`` kept one checkpoint file per replica, saved
each live replica on its own and restored a replica from its own file
(``_replica_checkpointer`` is the old ``_checkpointer`` method, renamed
because the shipped class holds its round ``Checkpointer`` under that
name), and breakers were tripped directly.  The shipped code polls only
the open breakers the router tracks, lands a batch's responses as one
event, reuses the hedge delay until a latency is added, memoizes each
vertex's backups and commits one round file per snapshot event; what it
must reproduce is this code, run for run: every response, every report
field, every ``resilience`` counter.
``tests/serve/test_loop_invariants.py`` compares the two over generated
``FleetEngine`` configurations.  Do not "fix" or speed up anything
here.  The one addition to the old ``route`` is the ``owner_routed`` /
``spill_routed`` count on the picked replica: the router counts its
picks since ``ReplicaServer.submit`` stopped taking ``is_owner``, and
the replica reports compared carry those counters.  The per-request
state the handlers keep is the run's since it became int maps: a
request's ``fate`` (``ANSWERED`` where a ``done`` set and a ``lost``
dict were), and the replica its first copy was ``routed`` to plus its
``later_copies`` where one list per request was.

:func:`chaos_oracle` swaps all of it into the shipped classes.
"""

from bisect import insort
from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import FleetError
from repro.errors import CheckpointError
from repro.faults.checkpoint import Checkpointer
from repro.fleet.engine import ANSWERED, FleetEngine, _FleetRun
from repro.fleet.resilience import ReplicaRecovery
from repro.fleet.router import Router
from repro.fleet.shards import ShardMap
from repro.serve.loop import FAULT, RESPONSE, TIMER


# -- Router ------------------------------------------------------------
def _admits(self, replica, now):
    """Accepting, and (when circuit breakers are wired in) the
    replica's breaker lets a request through at ``now``."""
    return replica.accepting and (
        self.breakers is None
        or self.breakers[replica.replica_id].allows(now))


def _backups(self, vertex):
    """Ids of the non-owner replicas holding ``vertex``'s row —
    none unless the partition replicates rows."""
    if getattr(self.shards, "replicated", False):
        return self.shards.backups(vertex)
    return ()


def route(self, request, now=0.0):
    """Pick ``(replica, is_owner)`` for one request.  Raises
    :class:`~repro.errors.FleetError` when no replica is accepting
    (every node crashed or drained away) — the error message names
    the request id so the engine can surface dropped requests.

    The owner is asked first; the candidate list is only built to
    spill or fail over.  With circuit breakers wired in every
    replica is still polled, in id order, before the owner-first
    return: :meth:`CircuitBreaker.allows` is where an open breaker
    lapses into half-open, so *when* it is polled is part of the
    run.  (A second poll at the same ``now`` returns the same
    answer and changes nothing.)"""
    vertex = request.vertex
    owner = self.replicas[self.shards.owner(vertex)]
    if self.breakers is None:
        owner_admits = owner.accepting
    else:
        owner_admits = False
        for replica in self.replicas:
            if self._admits(replica, now) and replica is owner:
                owner_admits = True

    if owner_admits:
        threshold = self.policy.spill_threshold
        if threshold is None or owner.queue_depth < threshold:
            owner.owner_routed += 1
            return owner, True
        chosen = self._cheapest(self._candidates(now), owner, vertex)
        if chosen is not owner:
            self.spillovers += 1
            chosen.spill_routed += 1
        else:
            owner.owner_routed += 1
        return chosen, chosen is owner

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
    chosen.spill_routed += 1
    if chosen.replica_id in self._backups(vertex):
        self.backup_routed += 1
    return chosen, False


# -- ReplicaRecovery --------------------------------------------------
def _replica_checkpointer(self, replica_id):
    checkpointers = self.__dict__.setdefault("_checkpointers", {})
    if replica_id not in checkpointers:
        checkpointers[replica_id] = Checkpointer(
            self.root / f"replica-{replica_id}.ckpt")
    return checkpointers[replica_id]


def save(self, replica, clock):
    """Snapshot ``replica``'s cache residency at ``clock``; a no-op
    for replicas without a cache."""
    cache = replica.executor.cache
    if cache is None:
        return False
    self._replica_checkpointer(replica.replica_id).save({
        "clock": float(clock),
        "replica": replica.replica_id,
        "cache": cache.snapshot(),
    })
    self.snapshots += 1
    return True


def restore(self, replica):
    """Re-warm ``replica``'s cache from its newest valid snapshot;
    returns whether a snapshot was applied (False = cold start)."""
    cache = replica.executor.cache
    if cache is None:
        return False
    self.recoveries += 1
    try:
        state = self._replica_checkpointer(
            replica.replica_id).load_latest()
    except CheckpointError:
        self.cold_recoveries += 1
        return False
    cache.restore(state["cache"])
    return True


# -- _FleetRun ---------------------------------------------------------
def trip_breaker(self, replica_id):
    if not self.replicas[replica_id].alive:
        self.breakers[replica_id].trip(self.loop.clock)


def on_snapshot(self, _):
    for replica in self.replicas:
        if replica.alive:
            self.recovery.save(replica, self.loop.clock)
    if not self.loop.draining:
        self.loop.schedule(
            self.loop.clock + self.recovery.snapshot_interval,
            FAULT, "snapshot")


def on_response(self, response):
    """The first copy back wins, a later twin is wasted work, and
    the winner cancels any copy still queued elsewhere."""
    rid = response.request.request_id
    if self.fate.get(rid) == ANSWERED:
        self.hedges_wasted += 1
        return
    self.fate[rid] = ANSWERED    # an earlier copy may have been lost
    insort(self.latencies, response.latency)
    self.loop.responses.append(response)
    target = self.hedge_target.get(rid)
    if target is None:
        return
    if response.replica == target:
        self.hedges_won += 1
    for other in [self.routed[rid], *self.later_copies.get(rid, ())]:
        if other != response.replica \
                and self.replicas[other].cancel(rid):
            self.hedges_cancelled += 1


def on_admit_hedged(self, request):
    """:meth:`on_admit`, remembering who holds a copy and arming the
    hedge timer on a request's first copy."""
    rid = request.request_id
    if self.fate.get(rid) == ANSWERED:
        return  # a hedge twin already answered it
    replica = self.on_admit(request)
    if replica is None:
        return
    if rid in self.routed:
        self.later_copies.setdefault(rid, []).append(replica.replica_id)
    else:
        self.routed[rid] = replica.replica_id
        delay = FleetEngine._hedge_delay(self.hedge_policy,
                                         self.latencies)
        if delay is not None:
            self.loop.schedule(self.loop.clock + delay, TIMER,
                               "hedge", request)


def defer_responses(self, dispatched):
    for response in dispatched[1]:
        self.loop.schedule(response.completion, RESPONSE,
                           "response", response)


# -- ShardMap ----------------------------------------------------------
def holders(self, vertex):
    """Every shard holding ``vertex``'s row locally, owner first,
    backups in ascending shard id.  Without a replica matrix this
    is just ``[owner]`` — the single-owner fleet."""
    owner = self.partition.owner(vertex)
    if not self.replicated:
        return [owner]
    held = np.flatnonzero(self.partition.replicas[:, int(vertex)])
    return [owner] + [int(s) for s in held if s != owner]


def backups(self, vertex):
    """The non-owner shards holding ``vertex`` (ascending ids)."""
    return holders(self, vertex)[1:]


_PATCHES = (
    (Router, "_admits", _admits),
    (Router, "_backups", _backups),
    (Router, "route", route),
    (ReplicaRecovery, "save", save),
    (ReplicaRecovery, "restore", restore),
    (_FleetRun, "trip_breaker", trip_breaker),
    (_FleetRun, "on_snapshot", on_snapshot),
    (_FleetRun, "on_response", on_response),
    (_FleetRun, "on_admit_hedged", on_admit_hedged),
    (_FleetRun, "defer_responses", defer_responses),
    (ShardMap, "backups", backups),
)


@contextmanager
def chaos_oracle():
    """Run ``FleetEngine`` on the pre-memo resilience handlers within
    the ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        for owner, name, function in _PATCHES:
            patch.setattr(owner, name, function)
        patch.setattr(ReplicaRecovery, "_replica_checkpointer",
                      _replica_checkpointer, raising=False)
        yield
