"""Shard-ownership and halo-set queries over a partition.

A serving fleet assigns one graph shard per replica, produced by any
:mod:`repro.partition` backend (hash, Metis-V/VE/VET, streaming).
:class:`ShardMap` is the read side of that assignment: *who owns
vertex v* (the router's per-request question), *which rows does shard
p hold locally*, and *which foreign rows does shard p's L-hop
neighborhood reach* — the **halo set**, the rows a replica must fetch
from other shards (or replicate) to answer multi-hop queries about its
own vertices.  This is the paper's §5 partitioning/communication model
re-used as a *routing* cost model: a request routed to the owner of
its seed touches remote rows only through the halo, so edge-cut
quality translates directly into serving network traffic.

Halos follow **in**-edges: a GNN layer aggregates a vertex's
in-neighbors, so serving vertex ``v`` at depth L needs the in-L-hop
neighborhood of ``v``.
"""

from __future__ import annotations

import numpy as np

from ..errors import FleetError
from ..partition.base import PartitionResult

__all__ = ["ShardMap"]


class ShardMap:
    """Ownership/halo view of one :class:`PartitionResult`.

    Parameters
    ----------
    partition:
        The partition assigning every vertex an owning shard; shard ids
        double as replica ids in the fleet.
    graph:
        The :class:`~repro.graph.csr.CSRGraph` being sharded (needed
        for halo/neighborhood queries; ownership queries work without
        touching it).
    """

    def __init__(self, partition, graph):
        if not isinstance(partition, PartitionResult):
            raise FleetError(
                f"ShardMap needs a PartitionResult, got "
                f"{type(partition).__name__}")
        if graph.num_vertices != partition.num_vertices:
            raise FleetError(
                f"partition covers {partition.num_vertices} vertices "
                f"but the graph has {graph.num_vertices}")
        self.partition = partition
        self.graph = graph
        self.assignment = partition.assignment
        self.num_shards = partition.num_parts
        #: The owning shard of every vertex, as a python list: the
        #: router holds it and answers its per-request query with one
        #: index.
        self.owner_of = self.assignment.tolist()
        self._backups = {}      # vertex -> backups(vertex), filled on use

    @property
    def num_vertices(self):
        return len(self.assignment)

    @property
    def replicated(self):
        """Whether the partition carries a replica matrix (k-redundant
        ownership or SALIENT++ hot-set caching)."""
        return self.partition.replicas is not None

    def replication_factor(self):
        """Average holders per vertex (1.0 = owner-only)."""
        return self.partition.replication_factor()

    def owner(self, vertices):
        """Owning shard of ``vertices`` (scalar in, scalar out)."""
        return self.partition.owner(vertices)

    def backups(self, vertex):
        """The non-owner shards holding ``vertex`` (ascending ids), as
        a tuple.  The router asks on every spill and failover, so the
        answer is memoized per vertex the first time it is asked (the
        replica matrix never changes under a built map)."""
        try:
            return self._backups[vertex]
        except KeyError:
            pass
        vertex = int(vertex)
        owner = self.owner_of[vertex]
        backups = ()
        if self.partition.replicas is not None:
            held = np.flatnonzero(self.partition.replicas[:, vertex])
            backups = tuple(held[held != owner].tolist())
        self._backups[vertex] = backups
        return backups

    def shard_vertices(self, shard):
        """Vertex ids owned by ``shard`` (sorted ascending)."""
        self._check_shard(shard)
        return self.partition.part_vertices(shard)

    def shard_sizes(self):
        """Owned-vertex counts per shard, ``int64 (k,)``."""
        return self.partition.sizes()

    def remote_mask(self, shard, vertices):
        """Boolean array: must a replica serving ``shard`` fetch each
        vertex from another shard (not owned there and, when the
        partition replicates rows, not held as a backup copy either)?
        Without a replica matrix this is exactly the ownership test —
        the single-owner fleet's billing path, unchanged."""
        self._check_shard(shard)
        vertices = np.asarray(vertices, dtype=np.int64)
        if self.partition.replicas is None:
            return self.assignment[vertices] != shard
        return ~self.partition.is_local(shard, vertices)

    def locality(self, shard, vertices):
        """Fraction of ``vertices`` owned by ``shard`` (1.0 for an
        empty query — nothing had to move)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            return 1.0
        return float((~self.remote_mask(shard, vertices)).mean())

    def _check_shard(self, shard):
        if not 0 <= shard < self.num_shards:
            raise FleetError(
                f"shard {shard} out of range [0, {self.num_shards})")

    def __repr__(self):
        return (f"ShardMap(shards={self.num_shards}, "
                f"vertices={self.num_vertices}, "
                f"method={self.partition.method!r})")
