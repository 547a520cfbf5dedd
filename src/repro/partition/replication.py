"""Partition-aware feature replication (SALIENT++'s caching idea).

SALIENT++ reduces distributed feature traffic by letting every machine
cache the *remote* vertices its own training workload requests most
often — measured, like GNNLab's GPU cache, by pre-sampling.  Here that
becomes a transformation on a :class:`PartitionResult`: given a
replication budget (fraction of the vertex count per machine), each
machine adds the hottest remote vertices to its replica set, and all
downstream accounting (workload reports, the training engine's
communication metering) automatically sees them as local.
"""

from __future__ import annotations

import numpy as np

from ..errors import PartitionError
from .base import PartitionResult
from .workload import _machine_batches

__all__ = ["k_redundant_replication", "partition_aware_replication",
           "remote_access_frequencies"]


def k_redundant_replication(partition, k):
    """Give every vertex a primary owner plus ``k - 1`` backup holders.

    Backups are the ``k - 1`` cyclic successors of the owning partition
    (vertex owned by part ``p`` is also held by ``p+1, ..., p+k-1`` mod
    the partition count), so replica placement is deterministic, every
    partition carries an equal share of backup load, and the backup set
    for any vertex is always ``k - 1`` *distinct* non-owner machines.
    This is the fleet-resilience scheme: any single replica can die and
    every one of its rows stays servable on the next shard over.

    Parameters
    ----------
    partition:
        The :class:`PartitionResult` to replicate.  Pre-existing
        replicas (e.g. SALIENT++ hot-set caching) are preserved and
        unioned with the redundancy copies.
    k:
        Total holders per vertex (owner included).  ``k = 1`` returns a
        copy with ownership-only replicas — the identity placement.

    Returns
    -------
    A new :class:`PartitionResult` (same ownership, method suffixed
    ``+k{k}``) whose replica matrix has at least ``k`` holders per
    vertex.
    """
    if not 1 <= int(k) <= partition.num_parts:
        raise PartitionError(
            f"replication factor must be in [1, {partition.num_parts}] "
            f"(num_parts), got {k}")
    k = int(k)
    n = partition.num_vertices
    replicas = (partition.replicas.copy()
                if partition.replicas is not None
                else np.zeros((partition.num_parts, n), dtype=bool))
    vertex_ids = np.arange(n)
    for offset in range(k):
        holders = (partition.assignment + offset) % partition.num_parts
        replicas[holders, vertex_ids] = True
    return PartitionResult(
        assignment=partition.assignment.copy(),
        num_parts=partition.num_parts,
        method=f"{partition.method}+k{k}",
        seconds=partition.seconds,
        replicas=replicas)


def remote_access_frequencies(dataset, partition, sampler, rng, epochs=2,
                              batch_size=512):
    """Per-machine access counts of *remote* vertices, measured by
    pre-sampling each machine's own training workload (``epochs`` and
    ``batch_size`` both ``>= 1``).

    Returns an ``(k, n)`` int64 matrix; row ``p`` counts how often
    machine ``p`` requested each vertex it does not hold locally.
    """
    counts = np.zeros((partition.num_parts, dataset.num_vertices),
                      dtype=np.int64)
    for part, _subgraph, traffic in _machine_batches(
            dataset, partition, sampler, batch_size, rng, epochs=epochs):
        np.add.at(counts[part], traffic.remote_inputs, 1)
    return counts


def partition_aware_replication(dataset, partition, sampler, budget_ratio,
                                rng=None, epochs=2, batch_size=512):
    """Extend a partitioning with per-machine hot-remote-vertex replicas.

    Parameters
    ----------
    dataset, partition, sampler:
        The training setup whose access pattern decides what to
        replicate.
    budget_ratio:
        Replication budget per machine, as a fraction of ``|V|``.
    rng:
        Generator for the pre-sampling pass.
    epochs, batch_size:
        Pre-sampling passes and seeds per batch (both ``>= 1``),
        handed to :func:`remote_access_frequencies`.

    Returns
    -------
    A new :class:`PartitionResult` (same ownership, method name suffixed
    with ``+repl``) whose replica matrix includes the chosen vertices.
    """
    if not 0.0 <= budget_ratio <= 1.0:
        raise PartitionError(
            f"budget_ratio must be in [0, 1], got {budget_ratio}")
    if rng is None:
        rng = np.random.default_rng(0)
    n = dataset.num_vertices
    budget = int(round(budget_ratio * n))
    counts = remote_access_frequencies(dataset, partition, sampler, rng,
                                       epochs=epochs,
                                       batch_size=batch_size)
    replicas = (partition.replicas.copy() if partition.replicas is not None
                else np.zeros((partition.num_parts, n), dtype=bool))
    replicas[partition.assignment, np.arange(n)] = True
    for part in range(partition.num_parts):
        if budget == 0:
            break
        hot = np.argsort(-counts[part], kind="stable")[:budget]
        hot = hot[counts[part][hot] > 0]
        replicas[part, hot] = True
    return PartitionResult(
        assignment=partition.assignment.copy(),
        num_parts=partition.num_parts,
        method=f"{partition.method}+repl",
        seconds=partition.seconds,
        replicas=replicas)
