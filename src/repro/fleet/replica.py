"""One serving replica: a shard's executor behind its own micro-batch
queue.

:class:`ReplicaServer` is the fleet's
:class:`~repro.serve.loop.ServeNode`: the same queue, ``dispatch`` and
counters as any serving node, around the
:class:`~repro.serve.executor.BatchExecutor` of its shard (rows it does
not hold are billed over the cluster network), plus a per-replica
seeded rng and the liveness flags (``alive`` — crash faults;
``active``/``draining`` — autoscaling) the router and fleet engine
steer by.
"""

from __future__ import annotations

import numpy as np

from ..errors import FleetError
from ..serve.loop import ServeNode, cache_hit_rates
from ..serve.metrics import depth_fields, latency_fields
from .metrics import ReplicaReport

__all__ = ["ReplicaServer"]


class ReplicaServer(ServeNode):
    """One fleet node: a :class:`~repro.serve.loop.ServeNode` serving
    one shard, plus what only a fleet member has — routing counters,
    the ``active`` autoscaling flag, and crash / recover.

    Parameters
    ----------
    replica_id:
        Shard this node serves (also its index in the fleet).
    shards:
        The shared :class:`~repro.fleet.shards.ShardMap`.
    executor:
        The node's :class:`~repro.serve.executor.BatchExecutor` (its
        ``replica_id`` must match).
    policy, max_queue, deadline, fallback:
        Per-replica :class:`~repro.serve.batcher.BatchPolicy`,
        admission bound and deadline degradation, as in
        ``ServeEngine``.
    seed:
        Base seed; the node's rng is ``default_rng((seed, replica_id))``
        so replicas draw independent, reproducible sampling streams.
    """

    def __init__(self, replica_id, shards, executor, policy=None,
                 max_queue=None, seed=0, deadline=None, fallback=False):
        if executor.replica_id != replica_id:
            raise FleetError(
                f"executor serves shard {executor.replica_id}, "
                f"replica is {replica_id}")
        super().__init__(
            executor, policy, max_queue, node_id=replica_id,
            rng=np.random.default_rng((int(seed), int(replica_id))),
            deadline=deadline, fallback=fallback)
        self.replica_id = self.node_id
        self.shards = shards
        self._active = True
        #: Whether the router may send this node new requests: alive,
        #: active and not draining.  Kept rather than derived, because
        #: the router reads it once a request: ``crash`` / ``recover``
        #: (the only writers of ``alive``) and the ``active`` /
        #: ``draining`` setters set it again.
        self.accepting = True

        # Counted by the router where it picks this node.
        self.owner_routed = 0
        self.spill_routed = 0
        self.crashes = 0
        self.down_seconds = 0.0

    def _gate(self):
        self.accepting = self.alive and self._active \
            and not self._draining

    @property
    def active(self):
        """False while scaled down."""
        return self._active

    @active.setter
    def active(self, value):
        self._active = value
        self._gate()

    @ServeNode.draining.setter
    def draining(self, value):
        ServeNode.draining.fset(self, value)
        self._gate()

    def crash(self, clock, down_seconds, cold=False):
        """Take the node down at ``clock``; returns the queued requests
        the router must re-route (failover).  ``cold`` drops the
        in-memory cache residency with the process (the fleet's
        recovery layer then re-warms it from a snapshot on rejoin);
        the default keeps PR 7's process-restart semantics."""
        self.alive = self.accepting = False
        self.crashes += 1
        self.down_seconds += down_seconds
        # An in-flight batch is lost with the node; queued-but-unserved
        # requests survive in the router's hands.
        self.free_at = max(self.free_at, clock)
        self.ready_at = None
        if cold and self.executor.cache is not None:
            self.executor.cache.evict_all()
        return self.batcher.drain()

    def recover(self, clock):
        """Bring the node back (empty queue, cache state retained —
        a process restart, not a cold node)."""
        self.alive = True
        self._gate()
        self.free_at = max(self.free_at, clock)
        self.ready_at = None

    def report(self, latencies=None):
        """This node's :class:`~repro.fleet.metrics.ReplicaReport`;
        ``latencies`` is :attr:`latencies` as float64 when the caller
        converted it already (the run report reuses that array)."""
        if latencies is None:
            latencies = np.array(self.latencies, dtype=np.float64)
        hit_rate, warm_rate, tiered = cache_hit_rates(
            [self.executor.cache])
        return ReplicaReport(
            replica=self.replica_id,
            shard_vertices=int(self.shards.shard_sizes()
                               [self.replica_id]),
            routed=self.owner_routed + self.spill_routed,
            owner_routed=self.owner_routed,
            spill_routed=self.spill_routed,
            completed=self.completed,
            rejected=self.rejected,
            shed=self.shed,
            degraded=self.degraded,
            num_batches=self.num_batches,
            mean_batch_size=self.mean_batch_size,
            **latency_fields(latencies),
            **depth_fields([self]),
            bp_seconds=self.bp_seconds,
            dt_seconds=self.dt_seconds,
            nn_seconds=self.nn_seconds,
            local_rows=self.executor.local_rows,
            remote_rows=self.executor.remote_rows,
            remote_seconds=self.executor.remote_seconds,
            zero_remote_completed=self.zero_remote_completed,
            cache_hit_rate=hit_rate,
            hot_hit_rate=hit_rate if tiered else 0.0,
            warm_hit_rate=warm_rate,
            tier_seconds=dict(self.executor.tier_seconds)
            if tiered else {},
            crashes=self.crashes,
            down_seconds=self.down_seconds,
        )

    def __repr__(self):
        state = "alive" if self.alive else "down"
        if not self.active:
            state = "inactive"
        elif self.draining:
            state = "draining"
        return (f"ReplicaServer(id={self.replica_id}, {state}, "
                f"queue={self.queue_depth})")
