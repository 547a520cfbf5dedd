"""The sort-based operator construction, kept verbatim as the oracle.

``mean_aggregation_csr_reference`` is the body
``repro.kernels.adjacency._mean_aggregation_csr`` shipped before a
sampled block owned its canonical CSR from birth: it packs the block's
edges into a key *again*, stable-sorts, dedups, bincounts an ``indptr``
and reverses every row.  ``block_operator_reference`` and
``attention_edges_reference`` are the un-memoized callers it had
(``normalized_block_adjacency`` and ``GATConv``'s edge list, the latter
with a freshly *sorted* segment view).  They define the stored bytes —
``indptr`` / ``indices`` / ``data``, the edge-list order and the view's
permutation — that the shipped sort-free accessors must reproduce;
``test_block_pipeline.py`` runs both on generated blocks.
``gsddmm_dot_reference`` is the one-pass ``dot`` that
``test_gsddmm_chunks.py`` holds the chunked kernel to.  Do not "fix" or
speed up anything here.
"""

import numpy as np

from repro.kernels import KernelCOO, KernelCSR


def mean_aggregation_csr_reference(rows, cols, num_dst, num_src):
    """Row-normalized mean-aggregation operator over raw edges:
    canonical CSR with duplicate edges summed, each row's entries
    *reversed* and values scaled by ``float32(1) / degree``."""
    if len(rows):
        # Canonicalize: ascending (row, col) with duplicates summed
        # (a self-loop can duplicate an existing (i, i) edge).
        key = rows * np.int64(max(num_src, 1)) + cols
        key.sort(kind="stable")
        fresh = np.concatenate(([True], key[1:] != key[:-1]))
        unique = key[fresh]
        bounds = np.concatenate((np.flatnonzero(fresh), [len(key)]))
        values = np.diff(bounds).astype(np.float32)
        urows, ucols = np.divmod(unique, np.int64(max(num_src, 1)))
    else:
        urows = ucols = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=np.float32)

    row_counts = np.bincount(urows, minlength=num_dst)
    indptr = np.concatenate(([0], np.cumsum(row_counts))).astype(np.int64)

    # Mean normalization: degrees are small exact integers, so the
    # float32 per-row sums the scipy path computed equal these counts.
    degree = np.bincount(urows, weights=values,
                         minlength=num_dst).astype(np.float32)
    degree[degree == 0] = 1.0
    scale = (1.0 / degree).astype(np.float32)

    # Reverse each row in place (position p of row [s, e) maps to
    # s + (e - 1 - p)); elementwise scaling commutes with the permute.
    if len(urows):
        positions = np.arange(len(urows), dtype=np.int64)
        starts = indptr[urows]
        ends = indptr[urows + 1]
        reverse = starts + (ends - 1 - positions)
        ucols = ucols[reverse]
        values = (values * scale[urows])[reverse]

    return KernelCSR(indptr, ucols, values, (num_dst, num_src))


def block_operator_reference(block, self_loops=True):
    """A block's mean-aggregation operator, rebuilt (and re-sorted) on
    every call."""
    num_dst, num_src = block.num_dst, block.num_src
    rows = np.repeat(np.arange(num_dst, dtype=np.int64),
                     block.degrees())
    cols = block.indices.astype(np.int64, copy=False)
    if self_loops:
        loops = np.arange(num_dst, dtype=np.int64)
        rows = np.concatenate([rows, loops])
        cols = np.concatenate([cols, loops])
    return mean_aggregation_csr_reference(rows, cols, num_dst, num_src)


def full_graph_operator_reference(graph, self_loops=True):
    """The whole graph's operator through the same sort-based core."""
    n = graph.num_vertices
    in_indptr, in_indices = graph.in_csr()
    rows = np.repeat(np.arange(n, dtype=np.int64),
                     np.diff(np.asarray(in_indptr, dtype=np.int64)))
    cols = np.asarray(in_indices, dtype=np.int64)
    if self_loops:
        loops = np.arange(n, dtype=np.int64)
        rows = np.concatenate([rows, loops])
        cols = np.concatenate([cols, loops])
    return mean_aggregation_csr_reference(rows, cols, n, n)


def attention_edges_reference(block):
    """GAT's edge list — block edges, then appended dst-side
    self-loops — as a fresh :class:`KernelCOO` whose segment view is
    the stable argsort ``segments()`` computes on first use."""
    edge_dst = np.repeat(np.arange(block.num_dst), block.degrees())
    loops = np.arange(block.num_dst)
    return KernelCOO(np.concatenate([edge_dst, loops]),
                     np.concatenate([block.indices, loops]),
                     (block.num_dst, block.num_src))


def gsddmm_dot_reference(adj, q, k):
    """``gsddmm``'s ``dot`` as the registry shipped it before the pass
    was cut into cache-sized chunks: gather both ``(nnz, d)`` operands
    whole, multiply, sum each row.  Defines the per-edge bits (and the
    promotion of mixed operand dtypes) every chunking must reproduce."""
    edges = adj.edges()
    lhs, rhs = q[edges.edge_dst], k[edges.edge_src]
    out = np.multiply(
        lhs, rhs, out=lhs if lhs.dtype == rhs.dtype else None)
    return out.sum(axis=1)
