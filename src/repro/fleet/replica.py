"""One serving replica: a shard-aware executor behind its own
micro-batch queue.

:class:`ShardExecutor` specializes the single-server
:class:`~repro.serve.executor.BatchExecutor` for a fleet node that owns
one graph shard: any row the local hierarchy cannot resolve is split by
:class:`~repro.fleet.shards.ShardMap` ownership, and the foreign rows
are billed over the cluster network
(:meth:`~repro.transfer.hardware.HardwareSpec.network_time`, one
message per distinct owning shard) instead of local disk.  With an
all-local fetch the billing formulas reduce *exactly* to the base
executor's — a 1-replica fleet charges bit-identical seconds to a
single :class:`~repro.serve.engine.ServeEngine`, which the equivalence
tests pin down.

:class:`ReplicaServer` is the fleet's
:class:`~repro.serve.loop.ServeNode`: the same queue, ``dispatch`` and
counters as the single server's node, a per-replica seeded rng, and
the liveness flags (``alive`` — crash faults; ``active``/``draining``
— autoscaling) the router and fleet engine steer by.
"""

from __future__ import annotations

import numpy as np

from ..errors import FleetError
from ..perf import sorted_unique
from ..serve.executor import BatchExecutor
from ..serve.loop import ServeNode, cache_hit_rates
from ..serve.metrics import summary_fields
from .metrics import ReplicaReport

__all__ = ["ShardExecutor", "ReplicaServer"]


class ShardExecutor(BatchExecutor):
    """A :class:`BatchExecutor` whose non-resident fetches respect
    shard ownership.

    Parameters are the base executor's plus:

    shards:
        The fleet's :class:`~repro.fleet.shards.ShardMap`.
    replica_id:
        This node's shard id in ``0..num_shards-1``.

    Extra counters: ``local_rows`` / ``remote_rows`` (rows resolved
    on-node vs. fetched from other shards over the network),
    ``remote_seconds`` (simulated network+share time of those fetches),
    and ``last_remote_rows`` (remote rows of the most recent fetch —
    the per-batch locality attribution the fleet report aggregates).
    """

    def __init__(self, shards, replica_id, dataset, model, **kwargs):
        self.shards = shards
        self.replica_id = int(replica_id)
        if not 0 <= self.replica_id < shards.num_shards:
            raise FleetError(
                f"replica id {replica_id} out of range "
                f"[0, {shards.num_shards})")
        super().__init__(dataset, model, **kwargs)
        self.local_rows = 0
        self.remote_rows = 0
        self.remote_seconds = 0.0
        self.last_remote_rows = 0
        self.last_remote_seconds = 0.0

    def reset_counters(self):
        super().reset_counters()
        self.local_rows = 0
        self.remote_rows = 0
        self.remote_seconds = 0.0
        self.last_remote_rows = 0
        self.last_remote_seconds = 0.0

    def _remote_cost(self, remote, row_bytes, pcie_share):
        """Network path of a remote fetch: scatter-gather on the owning
        nodes, one network message per distinct owner shard, plus this
        fetch's share of the local PCIe DMA."""
        remote_bytes = len(remote) * row_bytes
        messages = len(sorted_unique(self.shards.owner(remote)))
        return (self.spec.gather_time(remote_bytes)
                + self.spec.network_time(remote_bytes, messages=messages)
                + pcie_share)

    def _bill(self, cache, lookup, row_bytes):
        """The base bill with the cold rows split by ownership: local
        cold rows keep the backing-store path, remote cold rows pay the
        network path.  PCIe is shared by bytes over everything moved,
        with the remainder-style arithmetic ordered so a zero-remote
        fetch reproduces :meth:`TieredCache.bill` bit for bit."""
        local_cold, remote_cold = self.shards.split_local_remote(
            self.replica_id, lookup.cold_ids)
        self.last_remote_rows = len(remote_cold)
        self.remote_rows += len(remote_cold)
        self.local_rows += lookup.num_hot + lookup.num_warm \
            + len(local_cold)

        warm_bytes = lookup.num_warm * row_bytes
        lcold_bytes = len(local_cold) * row_bytes
        rcold_bytes = len(remote_cold) * row_bytes
        moved = warm_bytes + lcold_bytes + rcold_bytes
        pcie = self.spec.pcie_time(moved) if moved else 0.0
        warm_share = pcie * warm_bytes / moved if moved else 0.0
        nonwarm_share = pcie - warm_share if moved else 0.0
        if rcold_bytes and lcold_bytes:
            remote_share = (nonwarm_share * rcold_bytes
                            / (lcold_bytes + rcold_bytes))
            lcold_share = nonwarm_share - remote_share
        elif rcold_bytes:
            remote_share, lcold_share = nonwarm_share, 0.0
        else:
            remote_share, lcold_share = 0.0, nonwarm_share

        warm_seconds = (self.spec.host_cache_time(warm_bytes)
                        + warm_share) if warm_bytes else 0.0
        disk = self.spec.disk_time(lcold_bytes) \
            if cache.backing == "disk" else 0.0
        lcold_seconds = (disk + self.spec.gather_time(lcold_bytes)
                         + lcold_share) if lcold_bytes else 0.0
        remote_seconds = self._remote_cost(
            remote_cold, row_bytes, remote_share) if rcold_bytes else 0.0

        self.remote_seconds += remote_seconds
        self.last_remote_seconds = remote_seconds
        return (warm_seconds + lcold_seconds + remote_seconds,
                warm_seconds, lcold_seconds + remote_seconds)


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
        The node's :class:`ShardExecutor` (its ``replica_id`` must
        match).
    policy, max_queue:
        Per-replica :class:`~repro.serve.batcher.BatchPolicy` and
        admission bound, as in ``ServeEngine``.
    seed:
        Base seed; the node's rng is ``default_rng((seed, replica_id))``
        so replicas draw independent, reproducible sampling streams.
    """

    def __init__(self, replica_id, shards, executor, policy=None,
                 max_queue=None, seed=0):
        if executor.replica_id != replica_id:
            raise FleetError(
                f"executor serves shard {executor.replica_id}, "
                f"replica is {replica_id}")
        super().__init__(
            executor, policy, max_queue, node_id=replica_id,
            rng=np.random.default_rng((int(seed), int(replica_id))))
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

    def report(self):
        """This node's :class:`~repro.fleet.metrics.ReplicaReport`."""
        hit_rate, warm_rate, _ = cache_hit_rates([self.executor.cache])
        return ReplicaReport(
            replica=self.replica_id,
            shard_vertices=int(self.shards.shard_sizes()
                               [self.replica_id]),
            routed=self.owner_routed + self.spill_routed,
            owner_routed=self.owner_routed,
            spill_routed=self.spill_routed,
            completed=self.completed,
            rejected=self.rejected,
            num_batches=self.num_batches,
            mean_batch_size=self.mean_batch_size,
            **summary_fields("latency", self.latencies),
            **summary_fields("queue_depth", self.queue_depths, 0.0,
                             ("mean", "max")),
            bp_seconds=self.bp_seconds,
            dt_seconds=self.dt_seconds,
            nn_seconds=self.nn_seconds,
            local_rows=self.executor.local_rows,
            remote_rows=self.executor.remote_rows,
            remote_seconds=self.executor.remote_seconds,
            zero_remote_completed=self.zero_remote_completed,
            cache_hit_rate=hit_rate,
            hot_hit_rate=hit_rate,
            warm_hit_rate=warm_rate,
            tier_seconds=dict(self.executor.tier_seconds),
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
