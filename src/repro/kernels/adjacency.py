"""Adjacency containers for the kernel registry.

Two layouts cover every aggregation in the library:

* :class:`KernelCSR` — a weighted ``num_rows x num_cols`` CSR operator
  (the normalized mean-aggregation matrices of GCN/SAGE, the full-graph
  serving operators, and their transposes for the backward pass).
* :class:`KernelCOO` — an explicit edge list in ``(dst, src)`` pairs
  (GAT's attention path, where per-edge values are data-dependent and
  the *edge order* — block CSR edges followed by appended self-loops —
  is part of the numerical contract).

Both are thin, immutable-by-convention wrappers over int64/float32
numpy arrays.  :meth:`KernelCSR.transpose` materializes the transposed
CSR explicitly and memoizes it in both directions, so every backward
pass through a reused operator transposes once — the HGL/DGL
``rev_sparse`` idiom.  :meth:`KernelCOO.segments` is the same idea for
edge lists: one memoized destination-sorted :class:`SegmentView` whose
*stable* sort keeps every row's edges in list order — the order a
scatter-add accumulates them in — so compiled CSR kernels can stand in
for ``np.add.at`` bit for bit.

Bit-exactness notes (pinned by ``tests/kernels/``):

* :func:`transpose_csr` (stable argsort by column) produces byte-for-
  byte the same ``indptr``/``indices``/``data`` as scipy's
  ``.T.tocsr()``, so the reference and scipy backends share one
  transpose layout.
* :func:`normalized_block_adjacency` reproduces the exact stored
  layout scipy's historical construction emitted — including the
  *descending* per-row column order that scipy's SMMP-based
  ``diags @ csr`` product leaves behind — so reference-backend runs are
  bit-identical to the pre-registry implementation.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from ..errors import KernelError
from ..perf import PERF

__all__ = ["KernelCSR", "KernelCOO", "SegmentView", "transpose_csr",
           "normalized_block_adjacency", "full_graph_adjacency",
           "as_adjacency"]


def _stable_argsort(ids, bound):
    """Stable argsort of non-negative integer ``ids`` all below
    ``bound``.  Ids that fit 16 bits are narrowed first: numpy then
    radix-sorts (~9x faster than the merge sort wider integers get),
    and a stable sort's permutation does not depend on the algorithm.
    """
    if bound <= 1 << 16:
        ids = ids.astype(np.uint16)
    return np.argsort(ids, kind="stable")


def transpose_csr(indptr, indices, data=None, num_cols=None,
                  order=None):
    """Explicitly materialize the transpose of a CSR matrix.

    Returns ``(t_indptr, t_indices, t_data)`` (``t_data`` is ``None``
    when ``data`` is).  The stable argsort by column reproduces scipy's
    ``.T.tocsr()`` arrays byte-for-byte: both bucket entries by column
    in row-major scan order, so each output row lists its entries by
    ascending former row id.  ``order`` may supply that argsort
    precomputed (transposed entry ``p`` is original entry ``order[p]``).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    num_rows = len(indptr) - 1
    if num_cols is None:
        num_cols = int(indices.max()) + 1 if len(indices) else 0
    if order is None:
        order = _stable_argsort(indices, num_cols)
    rows = np.repeat(np.arange(num_rows, dtype=np.int64),
                     np.diff(indptr))
    t_indices = rows[order]
    counts = np.bincount(indices, minlength=num_cols)
    t_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    t_data = None if data is None else np.asarray(data)[order]
    return t_indptr, t_indices, t_data


class KernelCSR:
    """A weighted CSR operator with a memoized explicit transpose.

    Quacks enough like ``scipy.sparse.csr_matrix`` (``shape``, ``nnz``,
    ``toarray``, ``sum(axis=1)``) for the operator-consuming tests and
    cost metering, without importing scipy.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_transpose",
                 "_transpose_perm", "_edges", "_scipy", "_scipy_ones",
                 "_scipy_weighted")

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.shape = (int(shape[0]), int(shape[1]))
        if len(self.indptr) != self.shape[0] + 1:
            raise KernelError(
                f"indptr length {len(self.indptr)} does not match "
                f"{self.shape[0]} rows")
        if len(self.indices) != len(self.data):
            raise KernelError("indices and data must align")
        self._transpose = None
        self._transpose_perm = None
        self._edges = None
        self._scipy = None
        self._scipy_ones = None
        self._scipy_weighted = None

    @property
    def nnz(self):
        return len(self.indices)

    def row_degrees(self):
        """Stored entries per row (int64)."""
        return np.diff(self.indptr)

    def edges(self):
        """The stored entries as a :class:`KernelCOO` in storage order
        (memoized, so the expanded row ids are built once per
        operator rather than once per edge-wise kernel call)."""
        if self._edges is None:
            rows = np.repeat(np.arange(self.shape[0], dtype=np.int64),
                             self.row_degrees())
            self._edges = KernelCOO(rows, self.indices, self.shape)
        return self._edges

    def transpose_permutation(self):
        """The stable argsort-by-column permutation relating this
        operator's stored-edge order to its transpose's: transposed
        stored edge ``p`` is original stored edge ``perm[p]``.  Memoized
        (and shared with :meth:`transpose`), so per-edge quantities kept
        in original storage order — GAT's explicit attention values in
        the backward pass — can ride the transposed operator via
        ``values[perm]``."""
        if self._transpose_perm is None:
            self._transpose_perm = _stable_argsort(self.indices,
                                                   self.shape[1])
        return self._transpose_perm

    def transpose(self):
        """The transposed operator as another :class:`KernelCSR`.

        Built once and memoized in *both* directions, so
        ``A.transpose().transpose() is A`` and repeated backward passes
        reuse one materialization (``kernel_transpose_hits`` /
        ``kernel_transpose_misses`` count the reuse).
        """
        if self._transpose is not None:
            PERF.count("kernel_transpose_hits")
            return self._transpose
        PERF.count("kernel_transpose_misses")
        t_indptr, t_indices, t_data = transpose_csr(
            self.indptr, self.indices, self.data,
            num_cols=self.shape[1],
            order=self.transpose_permutation())
        transpose = KernelCSR(t_indptr, t_indices, t_data,
                              (self.shape[1], self.shape[0]))
        transpose._transpose = self
        self._transpose = transpose
        return transpose

    def take_rows(self, rows):
        """A new operator holding only ``rows`` (in the given order),
        each row's stored entries in their original order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        gather = np.concatenate(
            [np.arange(s, s + n) for s, n in zip(starts, lengths)]) \
            if len(rows) else np.empty(0, dtype=np.int64)
        return KernelCSR(indptr, self.indices[gather],
                         self.data[gather],
                         (len(rows), self.shape[1]))

    def toarray(self):
        """Dense float32 copy (tests and small-case debugging only)."""
        dense = np.zeros(self.shape, dtype=np.float32)
        dense[self.edges().edge_dst, self.indices] = self.data
        return dense

    def sum(self, axis=None):
        """Row sums (``axis=1``), column sums (``axis=0``) or the total,
        accumulated over stored entries in stored order like scipy."""
        if axis is None:
            return self.data.sum()
        if axis == 1:
            out = np.zeros(self.shape[0], dtype=self.data.dtype)
            np.add.at(out, self.edges().edge_dst, self.data)
            return out
        if axis == 0:
            out = np.zeros(self.shape[1], dtype=self.data.dtype)
            np.add.at(out, self.indices, self.data)
            return out
        raise KernelError(f"unsupported sum axis {axis!r}")

    def to_scipy(self):
        """The same operator as a scipy CSR (cached; the original
        object when this wrapper was built from one, so scipy-backend
        products reuse scipy's own memoized state)."""
        if self._scipy is None:
            import scipy.sparse as sp
            self._scipy = sp.csr_matrix(
                (self.data, self.indices, self.indptr), shape=self.shape)
        return self._scipy

    def __repr__(self):
        return (f"KernelCSR(shape={self.shape}, nnz={self.nnz})")


SegmentView = namedtuple("SegmentView", "order operator selection")
SegmentView.__doc__ = """A :class:`KernelCOO` regrouped by destination row.

``order`` is the stable argsort of ``edge_dst`` (view edge ``p`` is
list edge ``order[p]``); ``operator`` is the ``shape``-d CSR over the
permuted sources (per-edge values ride it as ``values[order]``);
``selection`` is the ``num_rows x nnz`` CSR whose row ``i`` selects the
list positions of row ``i``'s edges, so ``selection @ per_edge_rows``
is the segment scatter-add.
"""


class KernelCOO:
    """An explicit ``(dst, src)`` edge list (GAT's attention layout).

    The edge *order* is part of the numerical contract: scatter-add
    aggregation visits edges in list order, so two COOs with the same
    edge set but different order are different operators bit-wise.
    """

    __slots__ = ("edge_dst", "edge_src", "shape", "_reverse",
                 "_segments")

    def __init__(self, edge_dst, edge_src, shape):
        self.edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
        self.edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        if len(self.edge_dst) != len(self.edge_src):
            raise KernelError("edge arrays must have equal length")
        self._reverse = None
        self._segments = None

    @property
    def nnz(self):
        return len(self.edge_dst)

    def edges(self):
        """Itself (the layout-neutral spelling :class:`KernelCSR`
        shares)."""
        return self

    def reverse(self):
        """The reversed edge list (dst and src swapped, same edge
        order) — the COO analogue of :meth:`KernelCSR.transpose`, used
        by the backward pass to route gradients source-ward.  Memoized
        so its segment view is built once too (one-way: a back-pointer
        would make a reference cycle that keeps every per-batch edge
        list and its views alive until the cycle collector runs)."""
        if self._reverse is None:
            self._reverse = KernelCOO(self.edge_src, self.edge_dst,
                                      (self.shape[1], self.shape[0]))
        return self._reverse

    def segments(self):
        """The memoized destination-sorted :class:`SegmentView`.

        The sort is *stable*, so each row lists its edges in list
        order — exactly the per-row order ``np.add.at`` accumulates
        them in.  A CSR kernel that walks rows sequentially over the
        view therefore performs the same float additions in the same
        order as the list-order scatter: same bits, compiled loop.
        """
        if self._segments is None:
            PERF.count("kernel_segment_builds")
            order = _stable_argsort(self.edge_dst, self.shape[0])
            counts = np.bincount(self.edge_dst, minlength=self.shape[0])
            indptr = np.concatenate(([0], np.cumsum(counts)))
            ones = np.ones(self.nnz, dtype=np.float32)
            self._segments = SegmentView(
                order,
                KernelCSR(indptr, self.edge_src[order], ones, self.shape),
                KernelCSR(indptr, order, ones,
                          (self.shape[0], self.nnz)))
        return self._segments

    def __repr__(self):
        return (f"KernelCOO(shape={self.shape}, nnz={self.nnz})")


def _mean_aggregation_csr(rows, cols, num_dst, num_src):
    """Row-normalized mean-aggregation operator over raw edges.

    The shared core of :func:`normalized_block_adjacency` and
    :func:`full_graph_adjacency`: canonical CSR with duplicate edges
    summed, each row's entries *reversed* (scipy's SMMP ``diags @ csr``
    row-scaling emits rows in descending column order) and values
    scaled by ``float32(1) / degree`` — bit-for-bit the layout the
    historical scipy construction produced.
    """
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


def normalized_block_adjacency(block, self_loops=True):
    """A sampled block's row-normalized mean-aggregation operator.

    Pure-numpy construction of the ``num_dst x num_src`` operator whose
    row ``i`` averages the sampled in-neighbors of destination ``i``
    (plus ``i`` itself when ``self_loops``); layout notes in
    :func:`_mean_aggregation_csr`.
    """
    num_dst, num_src = block.num_dst, block.num_src
    rows = np.repeat(np.arange(num_dst, dtype=np.int64),
                     block.degrees())
    cols = block.indices.astype(np.int64, copy=False)
    if self_loops:
        loops = np.arange(num_dst, dtype=np.int64)
        rows = np.concatenate([rows, loops])
        cols = np.concatenate([cols, loops])
    return _mean_aggregation_csr(rows, cols, num_dst, num_src)


def full_graph_adjacency(graph, self_loops=True):
    """The whole graph's row-normalized mean-aggregation operator.

    The ``n x n`` operator whose row ``v`` averages the in-neighbors of
    vertex ``v`` (plus ``v`` itself when ``self_loops``), built from
    ``graph.in_csr()`` without scipy.  Replaces the historical
    ``diags @ (csr + identity)`` construction in the full-batch engine
    bit-for-bit — same layout notes as :func:`_mean_aggregation_csr` —
    so full-graph training and precomputed serving run identically on
    every kernel backend.
    """
    n = graph.num_vertices
    in_indptr, in_indices = graph.in_csr()
    rows = np.repeat(np.arange(n, dtype=np.int64),
                     np.diff(np.asarray(in_indptr, dtype=np.int64)))
    cols = np.asarray(in_indices, dtype=np.int64)
    if self_loops:
        loops = np.arange(n, dtype=np.int64)
        rows = np.concatenate([rows, loops])
        cols = np.concatenate([cols, loops])
    return _mean_aggregation_csr(rows, cols, n, n)


def as_adjacency(matrix):
    """Coerce ``matrix`` into a kernel adjacency.

    Accepts :class:`KernelCSR`/:class:`KernelCOO` (returned as-is) and
    scipy CSR matrices, which are wrapped once and cached on the scipy
    object so repeated dispatch through a persistent operator (the
    full-batch engine's adjacency, the serving tables' operators)
    reuses one wrapper — and therefore one memoized transpose.
    """
    if isinstance(matrix, (KernelCSR, KernelCOO)):
        return matrix
    if hasattr(matrix, "indptr") and hasattr(matrix, "indices") \
            and hasattr(matrix, "data") and hasattr(matrix, "shape"):
        cached = getattr(matrix, "_kernel_csr", None)
        if cached is not None:
            return cached
        wrapper = KernelCSR(matrix.indptr, matrix.indices, matrix.data,
                            matrix.shape)
        wrapper._scipy = matrix
        try:
            matrix._kernel_csr = wrapper
        except AttributeError:  # foreign objects without attr support
            pass
        return wrapper
    raise KernelError(
        f"cannot interpret {type(matrix).__name__} as a kernel "
        f"adjacency (expected KernelCSR, KernelCOO, or scipy CSR)")
