"""The scipy.sparse accelerated backend.

Covers every order-sensitive kernel with a compiled loop.  ``gspmm``
delegates to scipy's ``csr_matvecs``, which walks each row's stored
entries sequentially — exactly the order the reference's ``np.add.at``
scatter uses — so the two backends are bit-identical, not approximately
equal (pinned by ``tests/kernels``).  A COO edge list (GAT's layout)
rides the same kernel through its memoized destination-sorted
:meth:`~repro.kernels.adjacency.KernelCOO.segments` view: the stable
sort keeps each row's edges in list order, so the row walk *is* the
list-order scatter.  ``edge_softmax`` uses the view too
(``np.maximum.reduceat`` per row; the float64 sums are a list-order
``np.bincount``, which accumulates like ``np.add.at``).

scipy itself is imported lazily on first use: the package (and the
reference backend) must work on machines without scipy, which the
no-scipy CI conformance run exercises.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from .adjacency import KernelCOO

__all__ = ["ScipyBackend"]


class ScipyBackend:
    """gspmm via scipy's compiled sparse-dense product; edge_softmax
    via numpy's compiled segment reductions."""

    name = "scipy"

    def __init__(self):
        self._module = None
        self._checked = False

    def available(self):
        if not self._checked:
            self._checked = True
            try:
                import scipy.sparse
            except ImportError:
                pass
            else:
                self._module = scipy.sparse
        return self._module is not None

    def supports(self, kind):
        return kind in ("gspmm", "edge_softmax")

    def gspmm(self, adj, x, values, op):
        sp = self._module
        if sp is None:  # pragma: no cover - registry checks available()
            raise KernelError("scipy backend selected but scipy is "
                              "not importable")
        if isinstance(adj, KernelCOO):
            view = adj.segments()
            adj = view.operator
            if values is not None:
                values = values[view.order]
        if op == "copy_rhs":
            matrix = self._structural(adj, x.dtype)
        elif values is not None:
            matrix = self._weighted(adj)
            matrix.data = np.asarray(values)
        else:
            matrix = adj.to_scipy()
        return matrix @ x

    def edge_softmax(self, adj, scores):
        edges = adj.edges()
        view = edges.segments()
        edge_dst, indptr = edges.edge_dst, view.operator.indptr
        count = adj.shape[0]
        # reduceat cannot express an empty segment, so reduce over the
        # populated rows only (each runs to the next populated start).
        seg_max = np.full(count, -np.inf, dtype=np.float64)
        populated = np.flatnonzero(indptr[1:] > indptr[:-1])
        if len(populated):
            seg_max[populated] = np.maximum.reduceat(
                scores[view.order], indptr[populated])
        exp = np.exp(scores - seg_max[edge_dst])
        seg_sum = np.bincount(edge_dst, weights=exp, minlength=count)
        seg_sum[seg_sum == 0] = 1.0
        return (exp / seg_sum[edge_dst]).astype(scores.dtype)

    def _structural(self, adj, dtype):
        """The cached all-ones (``copy_rhs``) matrix sharing ``adj``'s
        sparsity; rebuilt only when the operand dtype changes.  Its
        ``data`` is never mutated — the values path has its own cache."""
        cached = adj._scipy_ones
        if cached is None or cached.dtype != dtype:
            cached = self._module.csr_matrix(
                (np.ones(adj.nnz, dtype=dtype), adj.indices,
                 adj.indptr), shape=adj.shape)
            adj._scipy_ones = cached
        return cached

    def _weighted(self, adj):
        """The cached explicit-values matrix sharing ``adj``'s sparsity.
        Each dispatch rebinds its ``data`` to the call's edge values —
        an O(1) swap instead of a fresh ``csr_matrix`` per call."""
        cached = adj._scipy_weighted
        if cached is None:
            cached = self._module.csr_matrix(
                (adj.data, adj.indices, adj.indptr), shape=adj.shape)
            adj._scipy_weighted = cached
        return cached
