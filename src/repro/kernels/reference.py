"""The pinned numpy reference backend.

Every other backend must reproduce this one bit-for-bit (the
``tests/kernels`` conformance matrix enforces it), so the reference
fixes not just the *values* but the *accumulation order* of every
kernel:

* CSR aggregation scatter-adds stored entries in storage order via
  ``np.add.at`` — the exact per-row sequential order scipy's
  ``csr_matvecs`` uses, which is what makes the scipy backend
  bit-identical rather than merely close.
* COO aggregation scatter-adds edges in list order (GAT's contract:
  block CSR edges first, appended self-loops last).
* ``edge_softmax`` runs the per-segment max/sum in float64 and casts
  the probabilities back (``segment_softmax`` of ``tests/nn``'s oracle).

``gsddmm`` is not here: it is a per-edge gather with no accumulation
order to pin, so the registry runs one shared implementation.

``np.add.at`` is an unbuffered ufunc: repeated indices accumulate
sequentially in element order, which is the property the whole
bit-exactness story rests on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReferenceBackend"]


def _edge_endpoints(adj):
    """``(edge_dst, edge_src, values_or_None)`` in storage order for
    either adjacency layout."""
    edges = adj.edges()
    return edges.edge_dst, edges.edge_src, getattr(adj, "data", None)


class ReferenceBackend:
    """Pure-numpy kernels; always available; defines the semantics."""

    name = "reference"

    def available(self):
        return True

    # ------------------------------------------------------------------
    # gspmm: y[i] = reduce over edges (i, j) of values[e] (*) x[j]
    # ------------------------------------------------------------------
    def gspmm(self, adj, x, values, op):
        """Sum-reduce aggregation (mean/max are layered in the registry
        dispatch so every backend shares one normalization/extremum
        code path)."""
        edge_dst, edge_src, stored = _edge_endpoints(adj)
        if values is None:
            values = stored
        gathered = x[edge_src]
        contribution = gathered if op == "copy_rhs" \
            else values[:, None] * gathered
        out = np.zeros((adj.shape[0], x.shape[1]), dtype=x.dtype)
        np.add.at(out, edge_dst, contribution)
        return out

    def gspmm_max(self, adj, x, values, op):
        """Max-reduce forward plus the argmax map the backward needs.

        Rows with no stored edges stay 0 (the sum-reduce convention).
        Ties resolve to the first stored edge, matching a sequential
        scan in storage order.
        """
        edge_dst, edge_src, stored = _edge_endpoints(adj)
        if values is None:
            values = stored
        gathered = x[edge_src]
        contribution = gathered if op == "copy_rhs" \
            else values[:, None] * gathered
        num_rows, width = adj.shape[0], x.shape[1]
        out = np.full((num_rows, width), -np.inf, dtype=x.dtype)
        np.maximum.at(out, edge_dst, contribution)
        # First stored edge achieving the max, per (row, feature).
        argmax = np.full((num_rows, width), len(edge_dst),
                         dtype=np.int64)
        if len(edge_dst):
            hit = contribution == out[edge_dst]
            candidates = np.where(
                hit, np.arange(len(edge_dst), dtype=np.int64)[:, None],
                np.int64(len(edge_dst)))
            np.minimum.at(argmax, edge_dst, candidates)
        empty = argmax == len(edge_dst)
        out[empty] = 0.0
        return out, argmax

    # ------------------------------------------------------------------
    # edge_softmax: per-destination softmax over edge scores
    # ------------------------------------------------------------------
    def edge_softmax(self, adj, scores):
        edge_dst, _edge_src, _ = _edge_endpoints(adj)
        count = adj.shape[0]
        seg_max = np.full(count, -np.inf, dtype=np.float64)
        np.maximum.at(seg_max, edge_dst, scores)
        shifted = scores - seg_max[edge_dst]
        exp = np.exp(shifted)
        seg_sum = np.zeros(count, dtype=np.float64)
        np.add.at(seg_sum, edge_dst, exp)
        seg_sum[seg_sum == 0] = 1.0
        return (exp / seg_sum[edge_dst]).astype(scores.dtype)
