"""Streaming graph partitioning (PaGraph's Stream-V, ByteGNN's Stream-B).

Streaming partitioners make an irrevocable placement decision per vertex
(or block of vertices) in a single pass, scoring each candidate partition
with a connectivity term multiplied by a balance term.

* **Stream-V** (PaGraph): streams *training* vertices; the score counts
  how much of the vertex's L-hop neighborhood a partition already caches,
  discounted by the partition's remaining training-vertex capacity.  The
  winning partition then *replicates the entire L-hop neighborhood*, so
  sampling later needs no communication at all (the paper's Figure 5
  shows Stream-V with zero communication) at the cost of heavy storage
  redundancy and density imbalance.

* **Stream-B** (ByteGNN): first groups vertices into small BFS blocks
  grown from training vertices, then streams blocks, assigning each to
  the partition with the most edges into it while balancing
  train/val/test counts.

Both are sequential scan-and-score algorithms: each decision reads the
holdings every earlier one left, so the stream order stays one vertex
(or block) at a time — the per-vertex work behind the paper's §5.3.3
finding that streaming partitioning dominates end-to-end time (99.4% /
84.9% of it).  Within one decision the work is batched: an L-hop
neighborhood gathers a whole hop's CSR rows at once, and draws all of
that hop's capped neighbors in one generator call
(:func:`~repro.perf.choice_sets`, the same samples and generator state
as one ``choice`` per vertex); a block's connectivity is one gather and
one ``bincount``.
"""

from __future__ import annotations

import numpy as np

from ..errors import PartitionError
from ..perf.unique import sorted_unique
from .base import PartitionResult, Partitioner, gather_rows

__all__ = ["StreamVPartitioner", "StreamBPartitioner", "l_hop_neighborhood",
           "build_bfs_blocks"]


def l_hop_neighborhood(graph, vertex, hops, hop_cap=None, rng=None):
    """Vertices within ``hops`` steps of ``vertex`` (excluding it).

    ``hop_cap`` limits the neighbors taken per vertex per hop — PaGraph
    caches the part of the L-hop neighborhood that sample-based training
    will actually touch, and an uncapped L-hop closure of a dense graph
    is simply the whole graph.  ``hop_cap=None`` takes everything; a
    capped vertex keeps its first ``hop_cap`` neighbors without ``rng``,
    and with one the ``rng.choice(neighbors, hop_cap, replace=False)``
    sample, all of a hop's capped vertices drawn in one call.
    """
    hop_cap = _check_hop_cap(hop_cap)
    frontier = np.array([vertex], dtype=np.int64)
    seen = np.zeros(graph.num_vertices, dtype=bool)
    seen[vertex] = True
    result = []
    for _hop in range(hops):
        if len(frontier) == 0:
            break
        candidates = sorted_unique(gather_rows(
            graph.indptr, graph.indices, frontier, hop_cap, rng))
        fresh = candidates[~seen[candidates]]
        seen[fresh] = True
        result.append(fresh)
        frontier = fresh
    if not result:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(result)


def _check_hop_cap(hop_cap):
    """``hop_cap`` as an int, or ``None``; anything else is an error."""
    if hop_cap is None:
        return None
    if (isinstance(hop_cap, bool)
            or not isinstance(hop_cap, (int, np.integer)) or hop_cap < 1):
        raise PartitionError(
            f"hop_cap must be None or an int >= 1, got {hop_cap!r}")
    return int(hop_cap)


class StreamVPartitioner(Partitioner):
    """PaGraph-style vertex streaming with L-hop neighborhood caching.

    Parameters
    ----------
    hops:
        Neighborhood depth ``L`` to replicate (the GNN's layer count).
    hop_cap:
        Neighbors replicated per vertex per hop; generous relative to the
        training fanout, so sampling stays (almost always) local while
        hubs do not drag the entire graph into every cache.
    """

    name = "stream-v"

    def __init__(self, hops=2, hop_cap=16):
        if hops < 1:
            raise PartitionError(f"hops must be >= 1, got {hops}")
        self.hops = hops
        self.hop_cap = _check_hop_cap(hop_cap)

    def _partition(self, graph, num_parts, split, rng):
        if split is None:
            raise PartitionError("stream-v needs a split (train vertices)")
        n = graph.num_vertices
        train_ids = split.train_ids
        replicas = np.zeros((num_parts, n), dtype=bool)
        assignment = np.full(n, -1, dtype=np.int64)
        tv_count = np.zeros(num_parts)
        capacity = max(1.0, len(train_ids) / num_parts)

        for v in rng.permutation(train_ids):
            neighborhood = l_hop_neighborhood(graph, v, self.hops,
                                              hop_cap=self.hop_cap, rng=rng)
            if len(neighborhood):
                overlap = replicas[:, neighborhood].sum(axis=1)
            else:
                overlap = np.zeros(num_parts)
            remaining = np.maximum(capacity - tv_count, 0.0) / capacity
            score = (overlap + 1.0) * remaining
            part = int(score.argmax())
            assignment[v] = part
            tv_count[part] += 1
            replicas[part, neighborhood] = True
            replicas[part, v] = True

        # Non-train vertices are owned by a partition that already caches
        # them (least-loaded such partition); untouched vertices fall back
        # to the least-loaded partition overall.
        unassigned = np.flatnonzero(assignment < 0)
        owned = np.bincount(assignment[assignment >= 0],
                            minlength=num_parts).astype(np.float64)
        for v in unassigned:
            holders = np.flatnonzero(replicas[:, v])
            pool = holders if len(holders) else np.arange(num_parts)
            part = int(pool[owned[pool].argmin()])
            assignment[v] = part
            owned[part] += 1
        return PartitionResult(assignment, num_parts, self.name,
                               replicas=replicas)


def build_bfs_blocks(graph, train_ids, rng, block_size=32):
    """Group vertices into blocks by BFS growth from training vertices.

    Every vertex lands in exactly one block; leftovers unreachable from
    any training vertex become their own blocks (round-robin chunks).
    Returns a list of int64 arrays.
    """
    n = graph.num_vertices
    claimed = np.zeros(n, dtype=bool)
    blocks = []
    for v in rng.permutation(train_ids):
        if claimed[v]:
            continue
        block = [int(v)]
        claimed[v] = True
        frontier = [int(v)]
        while frontier and len(block) < block_size:
            nxt = []
            for u in frontier:
                for w in graph.out_neighbors(u):
                    w = int(w)
                    if not claimed[w]:
                        claimed[w] = True
                        block.append(w)
                        nxt.append(w)
                        if len(block) >= block_size:
                            break
                if len(block) >= block_size:
                    break
            frontier = nxt
        blocks.append(np.array(block, dtype=np.int64))
    leftovers = np.flatnonzero(~claimed)
    for start in range(0, len(leftovers), block_size):
        blocks.append(leftovers[start:start + block_size])
    return blocks


class StreamBPartitioner(Partitioner):
    """ByteGNN-style block streaming.

    Parameters
    ----------
    block_size:
        Maximum vertices per BFS block.
    balance_types:
        Balance train/val/test counts (ByteGNN's multi-type balance); if
        false only training vertices are balanced.
    """

    name = "stream-b"

    def __init__(self, block_size=32, balance_types=True):
        if block_size < 1:
            raise PartitionError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size
        self.balance_types = balance_types

    def _partition(self, graph, num_parts, split, rng):
        if split is None:
            raise PartitionError("stream-b needs a split")
        n = graph.num_vertices
        blocks = build_bfs_blocks(graph, split.train_ids, rng,
                                  self.block_size)
        type_masks = [split.train_mask]
        if self.balance_types:
            type_masks += [split.val_mask, split.test_mask]
        type_weights = np.stack(
            [m.astype(np.float64) for m in type_masks], axis=1)
        capacity = type_weights.sum(axis=0) / num_parts + 1.0

        assignment = np.full(n, -1, dtype=np.int64)
        loads = np.zeros((num_parts, type_weights.shape[1]))
        order = rng.permutation(len(blocks))
        for bi in order:
            block = blocks[bi]
            # Edges from the block into each partition's current holdings.
            parts = assignment[gather_rows(graph.indptr, graph.indices,
                                           block)]
            conn = np.bincount(parts[parts >= 0], minlength=num_parts)
            block_w = type_weights[block].sum(axis=0)
            load_ratio = (loads / capacity).max(axis=1)
            # Hard capacity: a partition at its per-type quota scores 0,
            # so the connectivity term cannot starve the others.
            score = (conn + 1.0) * np.maximum(1.0 - load_ratio, 0.0)
            if score.max() <= 0:
                part = int(load_ratio.argmin())
            else:
                part = int(score.argmax())
            assignment[block] = part
            loads[part] += block_w
        return PartitionResult(assignment, num_parts, self.name)
