"""Adjacency containers for the sparse kernels.

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
CSR explicitly and memoizes it, so every backward pass through a reused
operator transposes once — the HGL/DGL ``rev_sparse`` idiom; the
transpose points back at its operator through a weak reference, so the
pair is no reference cycle and dies with the operator.
:meth:`KernelCOO.segments` is the same idea for edge lists: one
memoized destination-sorted :class:`SegmentView` whose
*stable* sort keeps every row's edges in list order — the order a
scatter-add accumulates them in — so compiled CSR kernels can stand in
for ``np.add.at`` bit for bit.

Bit-exactness notes (pinned by ``tests/kernels/``):

* :func:`transpose_csr` (stable argsort by column) produces byte-for-
  byte the same ``indptr``/``indices``/``data`` as scipy's
  ``.T.tocsr()``.
* :func:`normalized_block_adjacency` reproduces the exact stored
  layout scipy's historical construction emitted — including the
  *descending* per-row column order that scipy's SMMP-based
  ``diags @ csr`` product leaves behind — so aggregations are
  bit-identical to the pre-registry implementation.  Within-row
  summation order defines the float bits, so that order is kept, by
  *constructing* rows in it (one gather over the block's canonical
  rows), not by sorting them again.
"""

from __future__ import annotations

import weakref
from collections import namedtuple

import numpy as np

from ..errors import KernelError
from ..perf import PERF

__all__ = ["KernelCSR", "KernelCOO", "SegmentView", "transpose_csr",
           "normalized_block_adjacency", "block_attention_edges",
           "full_graph_adjacency", "as_adjacency"]


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
    ``sum(axis=1)``) for cost metering, without importing scipy.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_transpose",
                 "_transpose_perm", "_edges", "__weakref__")

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.shape = (int(shape[0]), int(shape[1]))
        nnz = len(self.indices)
        if len(self.indptr) != self.shape[0] + 1:
            raise KernelError(
                f"indptr length {len(self.indptr)} does not match "
                f"{self.shape[0]} rows")
        if nnz != len(self.data):
            raise KernelError("indices and data must align")
        if self.indptr[0] != 0 or self.indptr[-1] != nnz:
            # Compiled kernels walk these arrays unchecked.
            raise KernelError("indptr must run from 0 to nnz")
        self._transpose = None
        self._transpose_perm = None
        self._edges = None

    @property
    def nnz(self):
        return len(self.indices)

    def row_degrees(self):
        """Stored entries per row (int64)."""
        return self.indptr[1:] - self.indptr[:-1]

    def edges(self):
        """The stored entries as a :class:`KernelCOO` in storage order
        (memoized, so the expanded row ids are built once per
        operator rather than once per edge-wise kernel call)."""
        if self._edges is None:
            rows = np.arange(self.shape[0], dtype=np.int64).repeat(
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

        Built once and memoized, so repeated backward passes reuse one
        materialization (``kernel_transpose_hits`` /
        ``kernel_transpose_misses`` count the reuse).  The transpose
        holds ``A`` only weakly: ``A.transpose().transpose() is A``
        while ``A`` lives, and the pair forms no reference cycle, so
        dropping ``A`` frees both at once (a strong back-pointer left
        every operator a backward transposed to the cycle collector).
        Re-materializing the transpose of a transpose is not the same
        operator: its rows list entries ascending where
        :func:`normalized_block_adjacency` stores them descending.
        """
        memo = self._transpose
        if type(memo) is weakref.ref:
            memo = memo()
        if memo is not None:
            PERF.counters["kernel_transpose_hits"] += 1
            return memo
        PERF.counters["kernel_transpose_misses"] += 1
        t_indptr, t_indices, t_data = transpose_csr(
            self.indptr, self.indices, self.data,
            num_cols=self.shape[1],
            order=self.transpose_permutation())
        transpose = KernelCSR(t_indptr, t_indices, t_data,
                              (self.shape[1], self.shape[0]))
        transpose._transpose = weakref.ref(self)
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
            counts = np.bincount(self.edge_dst, minlength=self.shape[0])
            self._install_segments(
                _stable_argsort(self.edge_dst, self.shape[0]),
                np.concatenate(([0], np.cumsum(counts))))
        return self._segments

    def _install_segments(self, order, indptr):
        """Memoize the view whose edge ``p`` is list edge ``order[p]``
        and whose row ``i`` is ``[indptr[i], indptr[i + 1])``."""
        ones = np.ones(self.nnz, dtype=np.float32)
        self._segments = SegmentView(
            order,
            KernelCSR(indptr, self.edge_src[order], ones, self.shape),
            KernelCSR(indptr, order, ones, (self.shape[0], self.nnz)))

    def __repr__(self):
        return (f"KernelCOO(shape={self.shape}, nnz={self.nnz})")


def _mean_operator(indptr, indices, multiplicity, degree, shape):
    """Row-normalized mean-aggregation operator over canonical rows.

    The shared tail of :func:`normalized_block_adjacency` and
    :func:`full_graph_adjacency`.  ``indptr`` / ``indices`` hold rows
    with strictly ascending columns; ``multiplicity`` is how often each
    stored edge occurred (float32, or ``None`` for all ones) and
    ``degree`` its per-row total (``None``: the row lengths, which is
    what it is when nothing repeats).  Each row's entries are stored
    *reversed* (scipy's SMMP ``diags @ csr`` row-scaling emits rows in
    descending column order) and scaled by ``float32(1) / degree`` —
    bit-for-bit the layout the historical scipy construction produced.
    """
    counts = indptr[1:] - indptr[:-1]
    # Degrees are small exact integers, so the float32 per-row sums
    # the scipy path computed equal these counts.
    degree = (counts if degree is None else degree).astype(np.float32)
    degree[degree == 0] = 1.0
    # One rounded float32 divide per row, into the fresh copy.
    data = np.divide(np.float32(1), degree, out=degree).repeat(counts)
    # Position p of row [s, e) reads position s + (e - 1 - p);
    # elementwise scaling commutes with the permute.
    flip = (indptr[:-1] + indptr[1:] - 1).repeat(counts) \
        - np.arange(len(indices), dtype=np.int64)
    if multiplicity is not None:
        data = (multiplicity * data)[flip]
    return KernelCSR(indptr, indices[flip], data, shape)


def _splice(values, slots, inserted):
    """``values`` with ``inserted[k]`` placed at output position
    ``slots[k]`` and everything else kept in order around them."""
    out = np.empty(len(values) + len(slots), dtype=np.int64)
    kept = np.ones(len(out), dtype=bool)
    kept[slots] = False
    out[kept] = values
    out[slots] = inserted
    return out


def _insert_self_loops(indptr, indices):
    """Merge ``(i, i)`` into canonical rows without re-sorting them.

    Returns ``(indptr, indices, multiplicity)``: a destination that
    already lists itself keeps one stored entry of multiplicity 2 (a
    self-loop duplicates the sampled ``(i, i)`` edge), every other row
    gains one entry where column ``i`` belongs.
    """
    num_rows = len(indptr) - 1
    loops = np.arange(num_rows, dtype=np.int64)
    rows = np.repeat(loops, np.diff(indptr))
    # Entries left of the diagonal place the loop inside its row.
    below = np.bincount(rows[indices < rows], minlength=num_rows)
    stored = np.bincount(rows[indices == rows],
                         minlength=num_rows).astype(bool)
    grown = np.concatenate(([0], np.cumsum(~stored)))
    slot = indptr[:-1] + below + grown[:-1]
    multiplicity = np.ones(len(indices) + grown[-1], dtype=np.float32)
    multiplicity[slot[stored]] = 2.0
    return (indptr + grown,
            _splice(indices, slot[~stored], loops[~stored]), multiplicity)


def normalized_block_adjacency(block, self_loops=True):
    """A sampled block's row-normalized mean-aggregation operator.

    The ``num_dst x num_src`` operator whose row ``i`` averages the
    sampled in-neighbors of destination ``i`` (plus ``i`` itself when
    ``self_loops``), i.e. each row sums to 1.  Read straight off the
    block's CSR by gathers and prefix sums — no sort: the block's rows
    must be canonical (strictly ascending columns, what
    :func:`~repro.sampling.block.build_block` emits and
    :meth:`SampledBlock.validate` checks).  Stored layout in
    :func:`_mean_operator`.

    The operator depends only on the block's structure and
    ``self_loops``, so it is memoized on the block: forward, backward
    (through the operator's memoized transpose) and every replay of a
    cached block reuse one CSR.  Treat it as read-only.
    """
    key = bool(self_loops)
    cached = block._views.get(key)
    if cached is not None:
        return cached
    if self_loops:
        rows = _insert_self_loops(block.indptr, block.indices)
        degree = block.degrees() + 1
    else:
        rows, degree = (block.indptr, block.indices, None), None
    matrix = _mean_operator(*rows, degree, (block.num_dst, block.num_src))
    block._views[key] = matrix
    return matrix


def block_attention_edges(block):
    """A sampled block's edge list in local ids, dst-side self-loops
    appended, as a :class:`KernelCOO` (GAT's layout; the list order is
    the numerical contract).

    Its forward :class:`SegmentView` is installed in closed form — row
    ``i`` is block row ``i`` followed by list position ``nnz + i`` —
    because the list left the block destination-sorted; only the
    reversed list (the backward pass) still needs a stable argsort, by
    source.  Memoized on the block like
    :func:`normalized_block_adjacency`, so both views are shared by
    every head and layer, both passes and cached-subgraph replays.
    """
    edges = block._views.get("attention")
    if edges is None:
        num_dst, nnz = block.num_dst, block.num_edges
        loops = np.arange(num_dst, dtype=np.int64)
        edges = KernelCOO(
            np.concatenate([np.repeat(loops, block.degrees()), loops]),
            np.concatenate([block.indices, loops]),
            (num_dst, block.num_src))
        edges._install_segments(
            _splice(np.arange(nnz, dtype=np.int64),
                    block.indptr[1:] + loops, nnz + loops),
            block.indptr + np.arange(num_dst + 1, dtype=np.int64))
        block._views["attention"] = edges
    return edges


def full_graph_adjacency(graph, self_loops=True):
    """The whole graph's row-normalized mean-aggregation operator.

    The ``n x n`` operator whose row ``v`` averages the in-neighbors of
    vertex ``v`` (plus ``v`` itself when ``self_loops``), built from
    ``graph.in_csr()`` without scipy.  Replaces the historical
    ``diags @ (csr + identity)`` construction in the full-batch engine
    bit-for-bit, so full-graph training and precomputed serving keep
    their pre-registry bits.  A raw multigraph's rows may
    repeat or be unordered, so this path (built once per graph) keeps
    the canonicalising sort — duplicate edges summed — in front of the
    tail it shares with the block operator, :func:`_mean_operator`.
    """
    n = graph.num_vertices
    in_indptr, in_indices = graph.in_csr()
    degree = np.diff(np.asarray(in_indptr, dtype=np.int64))
    rows = np.repeat(np.arange(n, dtype=np.int64), degree)
    cols = np.asarray(in_indices, dtype=np.int64)
    if self_loops:
        loops = np.arange(n, dtype=np.int64)
        rows = np.concatenate([rows, loops])
        cols = np.concatenate([cols, loops])
        degree = degree + 1
    key = rows * np.int64(max(n, 1)) + cols
    key.sort()
    fresh = np.concatenate(([True], key[1:] != key[:-1])) \
        if len(key) else np.empty(0, dtype=bool)
    bounds = np.concatenate((np.flatnonzero(fresh), [len(key)]))
    urows, ucols = np.divmod(key[fresh], np.int64(max(n, 1)))
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(urows, minlength=n))))
    return _mean_operator(indptr, ucols,
                          np.diff(bounds).astype(np.float32), degree,
                          (n, n))


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
        try:
            matrix._kernel_csr = wrapper
        except AttributeError:  # foreign objects without attr support
            pass
        return wrapper
    raise KernelError(
        f"cannot interpret {type(matrix).__name__} as a kernel "
        f"adjacency (expected KernelCSR, KernelCOO, or scipy CSR)")
