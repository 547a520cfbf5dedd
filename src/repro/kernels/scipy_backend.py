"""The scipy.sparse accelerated backend.

Covers every order-sensitive kernel with a compiled loop.  ``gspmm``
hands the operator's ``indptr`` / ``indices`` / ``data`` straight to
scipy's ``csr_matvecs`` — the loop ``csr_matrix @ x`` ends in, without
constructing and validating a ``csr_matrix`` per operator — which walks
each row's stored entries sequentially, exactly the order the
reference's ``np.add.at`` scatter uses, so the two backends are
bit-identical, not approximately equal (pinned by ``tests/kernels``).  A COO edge list (GAT's layout)
rides the same kernel through its memoized destination-sorted
:meth:`~repro.kernels.adjacency.KernelCOO.segments` view: the stable
sort keeps each row's edges in list order, so the row walk *is* the
list-order scatter.  ``edge_softmax`` uses the view too
(``np.maximum.reduceat`` per row; the float64 sums are a list-order
``np.bincount``, which accumulates like ``np.add.at``).

scipy itself is imported lazily on first use: the package (and the
reference backend) must work on machines without scipy, which the
no-scipy CI conformance run exercises.  ``csr_matvecs`` lives in a
private scipy module; if that import fails the backend reports itself
unavailable and dispatch takes the (counted) reference fallback.
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
        self._matvecs = None
        self._checked = False

    def available(self):
        if not self._checked:
            self._checked = True
            try:
                from scipy.sparse._sparsetools import csr_matvecs
            except ImportError:
                pass
            else:
                self._matvecs = csr_matvecs
        return self._matvecs is not None

    def supports(self, kind):
        return kind in ("gspmm", "edge_softmax")

    def gspmm(self, adj, x, values, op):
        if self._matvecs is None:  # pragma: no cover - registry checks
            raise KernelError("scipy backend selected but scipy is "
                              "not importable")
        if isinstance(adj, KernelCOO):
            view = adj.segments()
            adj = view.operator
            if values is not None:
                values = values[view.order]
        if op == "copy_rhs":
            data = np.ones(adj.nnz, dtype=x.dtype)
        elif values is not None:
            data = np.asarray(values)
        else:
            data = adj.data
        # The promotion ``csr_matrix @ x`` applied (a float32 operator
        # on a float64 operand accumulates in float64); csr_matvecs
        # casts its inputs up to the output's type.
        out = np.zeros((adj.shape[0], x.shape[1]),
                       dtype=np.result_type(data, x))
        self._matvecs(adj.shape[0], adj.shape[1], x.shape[1],
                      adj.indptr, adj.indices, data, x.ravel(),
                      out.ravel())
        return out

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
