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

from ..perf.sanitize import check_csr
from ..errors import SamplingError
from ..perf import FLAGS, get_workspace, sorted_unique

__all__ = ["SampledBlock", "SampledSubgraph", "build_block"]

# ``array.max()`` without numpy's python trampoline around the ufunc.
_UMAX = np.maximum.reduce
_MAX_ID = np.iinfo(np.int64).max
_NO_IDS = np.empty(0, dtype=np.int64)
_POOL = get_workspace()


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
        of ``dst_nodes[i]``, strictly ascending within each row (no
        repeated column).  That canonical order is what every derived
        operator is read off without sorting again, so
        :meth:`validate` enforces it.

    Blocks are structurally immutable after assembly: derived operators
    are memoized on the block (``_views``), so a caller that wants
    different arrays builds a new block (``dataclasses.replace``).
    """

    dst_nodes: np.ndarray
    src_nodes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        # Slots for the derived views ``repro.kernels.adjacency`` reads
        # off this CSR (the mean-aggregation operators, GAT's edge
        # list).  ``sampling`` sits below ``kernels`` in the layer
        # contract, so the block only holds the slots; the kernels layer fills
        # them, once per block, for forward, backward and every
        # cached-subgraph replay.
        self._views = {}

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
        if self.num_edges > 1:
            # Strictly ascending columns inside every row: a step that
            # is not an increase is legal only across a row boundary.
            flat = np.diff(self.indices) <= 0
            starts = self.indptr[1:-1]
            flat[starts[(starts > 0) & (starts < self.num_edges)] - 1] \
                = False
            if flat.any():
                raise SamplingError(
                    "block rows must list strictly ascending columns "
                    "(a repeated or out-of-order edge)")

    def degrees(self):
        """Sampled in-degree per destination vertex."""
        return self.indptr[1:] - self.indptr[:-1]


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


def build_block(dst_nodes, edge_dst, edge_src):
    """Assemble a :class:`SampledBlock` from sampled global edge pairs.

    Parameters
    ----------
    dst_nodes:
        Global ids of this layer's destinations (unique).
    edge_dst, edge_src:
        Parallel arrays of sampled edges in *global* ids, in any order;
        every ``edge_dst`` value must appear in ``dst_nodes``.
        Duplicate ``(dst, src)`` pairs are collapsed.

    Global ids are localized through a pooled dense lookup table (one
    O(edges) gather pass).  The block's edges are then ordered exactly
    once: one sort of the packed ``(dst_local, src_local)`` key, whose
    neighbour-compare mask is the dedup and whose per-destination
    boundaries are ``indptr``.  (The only other ordering pass is the
    sort over the not-yet-seen source ids that names the new sources.)
    Everything downstream — the aggregation operators, GAT's segment
    view — is read off these canonical rows without sorting again.
    The sort-based assembly this replaced is the oracle in
    ``tests/sampling/_block_oracle.py``; both produce bit-identical
    blocks.
    """
    dst_nodes = np.asarray(dst_nodes, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    edge_src = np.asarray(edge_src, dtype=np.int64)
    num_dst, num_edges = len(dst_nodes), len(edge_dst)
    if num_edges != len(edge_src):
        raise SamplingError("edge arrays must have equal length")

    # One reduction per array: read as unsigned, a negative id is
    # larger than every valid one, so the maximum is both the
    # range check and the table size.
    top = 0
    if num_dst:
        top = int(_UMAX(dst_nodes.view(np.uint64)))
    if num_edges:
        top = max(top, int(_UMAX(edge_src.view(np.uint64))),
                  int(_UMAX(edge_dst.view(np.uint64))))
    if top > _MAX_ID:
        raise SamplingError("vertex ids must be non-negative")

    extra = _NO_IDS
    lookup = _POOL.borrow(top + 1)
    try:
        lookup[dst_nodes] = np.arange(num_dst, dtype=np.int64)
        dst_local = lookup[edge_dst]
        if num_edges and np.minimum.reduce(dst_local) < 0:
            raise SamplingError(
                "edge destination not found in block vertices")
        src_local = lookup[edge_src]
        # Both the emptiness test and the index (a boolean gather is
        # ~4x slower on a mask this mixed).
        fresh = (src_local < 0).nonzero()[0]
        if len(fresh):
            # Sources not already destinations, sorted unique — the
            # same ordering ``np.setdiff1d`` yields.
            extra = sorted_unique(edge_src[fresh])
            lookup[extra] = np.arange(
                num_dst, num_dst + len(extra), dtype=np.int64)
            src_local = lookup[edge_src]
    finally:
        # Restore the pool invariant (all -1), touching only the
        # entries this call wrote, and hand the table back.
        lookup[dst_nodes] = -1
        if len(extra):
            lookup[extra] = -1
        _POOL.release(lookup)

    num_src = num_dst + len(extra)
    # The one sort of the block's edges.  Packed with a shift, so
    # the source unpacks with a mask and a destination's row is the
    # key range [i << shift, (i + 1) << shift).  Safe in int64:
    # num_dst * num_src is far below 2**62 for any block this
    # library builds.  Tie order is irrelevant — equal keys are
    # equal (dst, src) pairs, and the mask keeps one of each.
    shift = max(num_src - 1, 1).bit_length()
    key = sorted_unique((dst_local << shift) | src_local)
    indices = key & ((1 << shift) - 1)
    indptr = key.searchsorted(
        np.arange(num_dst + 1, dtype=np.int64) << shift)
    block = SampledBlock(dst_nodes=dst_nodes,
                         src_nodes=np.concatenate([dst_nodes, extra]),
                         indptr=indptr, indices=indices)
    if FLAGS.sanitize:
        # Guarded at the call site so the off path costs one
        # attribute read in this hot loop.  Block CSRs are
        # rectangular: destination rows, source columns.
        check_csr(indptr, indices, num_dst, name="build_block",
                  sorted_rows=True, num_cols=num_src)
        block.validate()
    return block
