"""Sampled subgraph data structures (message-flow graphs).

A mini-batch for an L-layer GNN is a stack of L bipartite *blocks*.
Block ``l`` aggregates features of its *source* vertices (layer ``l``
inputs) into its *destination* vertices (layer ``l`` outputs).  Following
the usual MFG convention, every destination vertex is also the first
entry of the source list, so a layer can combine a vertex's own
representation with its aggregated neighbors by slicing.

Vertex ids inside a block are *local* (0-based positions); the mapping
back to global graph ids is kept in ``src_nodes``/``dst_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.sanitize import check_csr
from ..errors import SamplingError
from ..perf import FLAGS, PERF, get_workspace

__all__ = ["SampledBlock", "SampledSubgraph", "build_block"]


@dataclass
class SampledBlock:
    """One bipartite aggregation layer.

    Attributes
    ----------
    dst_nodes:
        Global ids of output vertices (the layer's frontier).
    src_nodes:
        Global ids of input vertices; ``src_nodes[:len(dst_nodes)] ==
        dst_nodes`` (self-inclusion).
    indptr, indices:
        CSR over destinations: ``indices[indptr[i]:indptr[i+1]]`` are
        *local* positions into ``src_nodes`` of the sampled in-neighbors
        of ``dst_nodes[i]``.
    """

    dst_nodes: np.ndarray
    src_nodes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        # Memoization slots for derived operators (see
        # ``repro.nn.layers.block_aggregation_matrix``).  Blocks are
        # structurally immutable after assembly, so derived operators
        # can be built once and reused across forward/backward calls
        # and across epochs when the block itself is cached.
        self._agg_cache = {}
        self._edge_list_cache = None

    def clear_caches(self):
        """Drop memoized derived operators (aggregation CSR, edge
        lists).  Only needed if a caller mutates the block's arrays in
        place, which nothing in the library does."""
        self._agg_cache = {}
        self._edge_list_cache = None

    @property
    def num_dst(self):
        return len(self.dst_nodes)

    @property
    def num_src(self):
        return len(self.src_nodes)

    @property
    def num_edges(self):
        return len(self.indices)

    def validate(self):
        """Raise :class:`SamplingError` on structural inconsistencies."""
        if len(self.indptr) != self.num_dst + 1:
            raise SamplingError("block indptr length mismatch")
        if self.indptr[0] != 0 or self.indptr[-1] != self.num_edges:
            raise SamplingError("block indptr endpoints wrong")
        if np.any(np.diff(self.indptr) < 0):
            raise SamplingError("block indptr must be non-decreasing")
        if self.num_edges and (self.indices.min() < 0
                               or self.indices.max() >= self.num_src):
            raise SamplingError("block edge index out of range")
        if not np.array_equal(self.src_nodes[:self.num_dst], self.dst_nodes):
            raise SamplingError("src_nodes must start with dst_nodes")

    def degrees(self):
        """Sampled in-degree per destination vertex."""
        return np.diff(self.indptr)


@dataclass
class SampledSubgraph:
    """A full L-layer mini-batch sample.

    ``blocks[0]`` is the *innermost* block (consumes raw input features);
    ``blocks[-1]`` produces the embeddings of the batch ``seeds``.
    """

    seeds: np.ndarray
    blocks: list

    @property
    def num_layers(self):
        return len(self.blocks)

    @property
    def input_nodes(self):
        """Global ids whose raw features must be fetched."""
        if not self.blocks:
            return self.seeds
        return self.blocks[0].src_nodes

    @property
    def total_edges(self):
        """Total aggregation work (edges across all blocks)."""
        return int(sum(block.num_edges for block in self.blocks))

    @property
    def total_vertices(self):
        """Total vertex slots across all blocks (with inter-layer
        duplicates, i.e. the computation footprint)."""
        return int(sum(block.num_src for block in self.blocks))

    def unique_vertices(self):
        """Distinct global vertex ids touched anywhere in the sample."""
        parts = [self.seeds] + [b.src_nodes for b in self.blocks]
        return np.unique(np.concatenate(parts))

    def validate(self):
        """Validate every block and their layer chaining."""
        for block in self.blocks:
            block.validate()
        if self.blocks and not np.array_equal(
                self.blocks[-1].dst_nodes, self.seeds):
            raise SamplingError("outermost block must target the seeds")
        # Layer chaining: dst of block l == src of block l-1's consumer.
        for inner, outer in zip(self.blocks[:-1], self.blocks[1:]):
            if not np.array_equal(inner.dst_nodes, outer.src_nodes):
                raise SamplingError("blocks do not chain")


def _assemble(dst_nodes, src_nodes, dst_local, src_local, dedup):
    """Order localized edges by ``(dst_local, src_local)``, optionally
    collapse duplicate pairs, and wrap everything in a
    :class:`SampledBlock`."""
    if len(dst_local):
        # Fused sort key: one argsort over ``dst * num_src + src``
        # replaces a two-key lexsort (two stable sorts + gathers).
        # Safe in int64: num_dst * num_src is far below 2**63 for any
        # block this library builds.  Tie order is irrelevant — equal
        # keys mean equal (dst, src) values — so the gathered value
        # arrays are identical to a lexsort's.
        key = dst_local * np.int64(len(src_nodes)) + src_local
        if dedup:
            key = np.unique(key)
        else:
            key.sort()
        dst_local, src_local = np.divmod(key, np.int64(len(src_nodes)))

    counts = np.bincount(dst_local, minlength=len(dst_nodes))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    if FLAGS.sanitize:
        # Guarded at the call site so the off path costs one attribute
        # read in this hot loop; rows are sorted by the key sort above.
        # Block CSRs are rectangular: destination rows, source columns.
        check_csr(indptr, src_local, len(dst_nodes), name="build_block",
                  sorted_rows=True, num_cols=len(src_nodes))
    return SampledBlock(dst_nodes=dst_nodes, src_nodes=src_nodes,
                        indptr=indptr, indices=src_local)


def build_block(dst_nodes, edge_dst, edge_src, assume_deduped=False):
    """Assemble a :class:`SampledBlock` from sampled global edge pairs.

    Parameters
    ----------
    dst_nodes:
        Global ids of this layer's destinations (unique).
    edge_dst, edge_src:
        Parallel arrays of sampled edges in *global* ids; every
        ``edge_dst`` value must appear in ``dst_nodes``.  Duplicate
        ``(dst, src)`` pairs are collapsed.
    assume_deduped:
        Promise that ``(edge_dst, edge_src)`` pairs are already
        distinct (true for edges straight out of
        :func:`~repro.sampling.base.draw_neighbors`), skipping the
        dedup pass.  Passing ``True`` for inputs with duplicate pairs
        silently double-counts edges — only set it when the producer
        guarantees distinctness.

    Global ids are localized through a pooled dense lookup table (one
    O(edges) gather pass).  The sort-based assembly this replaced is
    the oracle in ``tests/sampling/_block_oracle.py``; both produce
    bit-identical blocks.
    """
    with PERF.timed("block_assembly"):
        dst_nodes = np.asarray(dst_nodes, dtype=np.int64)
        edge_dst = np.asarray(edge_dst, dtype=np.int64)
        edge_src = np.asarray(edge_src, dtype=np.int64)
        if len(edge_dst) != len(edge_src):
            raise SamplingError("edge arrays must have equal length")

        high = 1
        if len(dst_nodes):
            if int(dst_nodes.min()) < 0:
                raise SamplingError("vertex ids must be non-negative")
            high = max(high, int(dst_nodes.max()) + 1)
        if len(edge_src):
            if int(edge_src.min()) < 0 or int(edge_dst.min()) < 0:
                raise SamplingError("vertex ids must be non-negative")
            high = max(high, int(edge_src.max()) + 1,
                       int(edge_dst.max()) + 1)

        num_dst = len(dst_nodes)
        extra = np.empty(0, dtype=np.int64)
        with get_workspace().id_map(high) as lookup:
            try:
                lookup[dst_nodes] = np.arange(num_dst, dtype=np.int64)
                dst_local = lookup[edge_dst]
                if len(dst_local) and dst_local.min() < 0:
                    raise SamplingError(
                        "edge destination not found in block vertices")
                src_local = lookup[edge_src]
                fresh = src_local < 0
                if fresh.any():
                    # Sources not already destinations, sorted unique —
                    # the same ordering ``np.setdiff1d`` yields.
                    extra = np.unique(edge_src[fresh])
                    lookup[extra] = np.arange(
                        num_dst, num_dst + len(extra), dtype=np.int64)
                    src_local = lookup[edge_src]
            finally:
                # Restore the pool invariant (all -1), touching only
                # the entries this call wrote.
                lookup[dst_nodes] = -1
                if len(extra):
                    lookup[extra] = -1

        src_nodes = np.concatenate([dst_nodes, extra])
        return _assemble(dst_nodes, src_nodes, dst_local, src_local,
                         dedup=not assume_deduped)
