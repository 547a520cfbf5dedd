"""The forward sparse kernels: one compiled path per op.

The one seam every aggregation in the library runs through.  Each
kernel validates its operands, bills its FLOPs to
:data:`repro.perf.PERF` and runs one implementation:

* ``gspmm`` hands the operator's ``indptr`` / ``indices`` / ``data``
  straight to scipy's ``csr_matvecs`` — the loop ``csr_matrix @ x``
  ends in, without constructing and validating a ``csr_matrix`` per
  operator.  It walks each row's stored entries sequentially, so its
  bits are those of an ``np.add.at`` scatter in storage order (the
  oracle in ``tests/kernels/_reference_oracle.py``).  A COO edge list
  (GAT's layout) rides the same kernel through its memoized
  destination-sorted :meth:`~repro.kernels.adjacency.KernelCOO.segments`
  view: the stable sort keeps each row's edges in list order, so the
  row walk *is* the list-order scatter.  ``mean`` divides that sum by
  the stored row degrees.
* ``edge_softmax`` reduces over the same view (``np.maximum.reduceat``
  per row; the float64 sums are a list-order ``np.bincount``, which
  accumulates like ``np.add.at``).
* ``gsddmm`` is a per-edge gather with no accumulation order.

``csr_matvecs`` lives in scipy's private compiled ``_sparsetools``
extension; the public ``csr_matrix(...) @ x`` gives the same bytes but
builds and validates a matrix per product (122 profiled calls against
7).  The extension is loaded from its file under its own name: an
``import scipy.sparse._sparsetools`` would first run
``scipy/sparse/__init__.py``, which costs ~20 MB of RSS and ~310
modules (the array-API layer, ``numpy.testing``, ``numpy.f2py``) for
one C function.  ``tests/kernels/test_matvecs_pin.py`` names the
function and the ``scipy`` floor it needs, in both import orders.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from ..perf.sanitize import check_csr, check_finite
from ..errors import KernelError
from ..perf import FLAGS, PERF
from .adjacency import KernelCOO, as_adjacency

__all__ = ["gspmm_forward", "gsddmm_forward", "edge_softmax_forward",
           "GSPMM_OPS", "GSDDMM_OPS", "REDUCES"]

#: Bytes of one gathered operand per pass of ``gsddmm``'s ``dot``, so
#: both ``(chunk, d)`` temporaries are still in cache for the product
#: and the row sum.  Bits do not depend on it; 128-256 KiB measured best.
DOT_CHUNK_BYTES = 1 << 18

_SPARSETOOLS = "scipy.sparse._sparsetools"


def _sparsetools():
    """scipy's compiled ``_sparsetools`` extension under its canonical
    name.  An earlier ``import scipy.sparse``'s module is reused.  A
    fresh load is taken back out of ``sys.modules`` (a single-phase
    extension registers itself while it is created): a child listed
    there before its package would leave a later ``import scipy.sparse``
    without the ``_sparsetools`` attribute.  That import loads the
    extension again, and a second load of a single-phase extension
    copies the first one's dict, so ``csr_matvecs`` is one function
    either way."""
    module = sys.modules.get(_SPARSETOOLS)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    folders = scipy.submodule_search_locations if scipy else None
    for folder in folders or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(folder, "sparse", "_sparsetools" + suffix)
            if path.is_file():
                spec = importlib.util.spec_from_file_location(
                    _SPARSETOOLS, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules.pop(_SPARSETOOLS, None)
                return module
    raise ImportError(
        f"repro.kernels runs on {_SPARSETOOLS}.csr_matvecs and found no "
        f"compiled {_SPARSETOOLS} extension; install scipy>=1.10")


csr_matvecs = _sparsetools().csr_matvecs

GSPMM_OPS = ("mul", "copy_rhs")
GSDDMM_OPS = ("add", "mul", "dot")
REDUCES = ("sum", "mean")


def _as_matrix(x):
    """Features as a 2-D array (1-D inputs ride as one column)."""
    x = np.asarray(x)
    if x.ndim == 1:
        return x[:, None], True
    if x.ndim != 2:
        raise KernelError(f"expected 1-D or 2-D operand, got {x.ndim}-D")
    return x, False


def _sanitize_adj(adj, name):
    if hasattr(adj, "indptr"):
        check_csr(adj.indptr, adj.indices, adj.shape[0], name=name,
                  sorted_rows=False, num_cols=adj.shape[1])
        check_finite(adj.data, name=f"{name} values")


def gspmm_forward(adj, x, values=None, op="mul", reduce="sum"):
    """Generalized SpMM: ``y[i] = reduce over edges (i, j) of
    values[e] (*) x[j]`` over the adjacency's stored edges.

    ``adj`` may be a :class:`~repro.kernels.adjacency.KernelCSR`, a
    :class:`~repro.kernels.adjacency.KernelCOO` (``values`` required
    for ``op='mul'`` unless stored), or a scipy CSR matrix.  Edge
    ``values`` that ``op='mul'`` multiplies may not be wider than ``x``
    (a float64 product cannot accumulate into a float32 output).
    Arrays in, arrays out; the autograd boundary lives in
    :mod:`repro.kernels.autograd`.
    """
    if op not in GSPMM_OPS:
        raise KernelError(
            f"unknown gspmm op {op!r}; known: {', '.join(GSPMM_OPS)}")
    if reduce not in REDUCES:
        raise KernelError(
            f"unknown gspmm reduce {reduce!r}; known: "
            f"{', '.join(REDUCES)}")
    adj = as_adjacency(adj)
    x, squeeze = _as_matrix(x)
    if x.shape[0] != adj.shape[1]:
        raise KernelError(
            f"gspmm operand has {x.shape[0]} rows but the adjacency "
            f"has {adj.shape[1]} columns")
    if FLAGS.sanitize:
        _sanitize_adj(adj, "kernels.gspmm")
        check_finite(x, name="kernels.gspmm operand")
        if values is not None:
            check_finite(values, name="kernels.gspmm edge values")

    if op == "mul" and values is None and isinstance(adj, KernelCOO):
        raise KernelError("gspmm op='mul' needs edge values")
    if values is not None:
        values = np.asarray(values)
        if len(values) != adj.nnz:
            # The compiled kernel walks the value array unchecked.
            raise KernelError(
                f"gspmm got {len(values)} edge values for {adj.nnz} "
                f"stored edges")
        if op == "mul" and not np.can_cast(values.dtype, x.dtype):
            raise KernelError(
                f"gspmm edge values ({values.dtype}) are wider than the "
                f"features ({x.dtype}); cast one of them first")
    out = _spmm(adj, x, values, op)
    if reduce == "mean":
        out = out / _row_counts(adj, out.dtype)[:, None]
    PERF.counters["kernel_flops"] += 2 * adj.nnz * x.shape[1]
    return out[:, 0] if squeeze else out


def _spmm(adj, x, values, op):
    """The sum-reduce product: one ``csr_matvecs`` row walk."""
    if isinstance(adj, KernelCOO):
        view = adj.segments()
        adj = view.operator
        if values is not None:
            values = values[view.order]
    if op == "copy_rhs":
        data = np.ones(adj.nnz, dtype=x.dtype)
    elif values is not None:
        data = values
    else:
        data = adj.data
    # The promotion ``csr_matrix @ x`` applies (a float32 operator on a
    # float64 operand accumulates in float64); csr_matvecs casts its
    # inputs up to the output's type.
    out = np.zeros((adj.shape[0], x.shape[1]),
                   dtype=np.result_type(data, x))
    csr_matvecs(adj.shape[0], adj.shape[1], x.shape[1], adj.indptr,
                adj.indices, data, x.ravel(), out.ravel())
    return out


def _row_counts(adj, dtype):
    """Stored edges per destination row, zero-degree rows clamped to 1
    (the mean-reduce divisor)."""
    if isinstance(adj, KernelCOO):
        counts = np.bincount(adj.edge_dst, minlength=adj.shape[0])
    else:
        counts = adj.row_degrees()
    counts = counts.astype(dtype)
    counts[counts == 0] = 1
    return counts


def gsddmm_forward(adj, q, k, op="add"):
    """Generalized SDDMM: ``s[e] = op(q[dst_e], k[src_e])`` per stored
    edge.  ``dot`` contracts the feature axis (returns one scalar per
    edge); ``add``/``mul`` are elementwise."""
    if op not in GSDDMM_OPS:
        raise KernelError(
            f"unknown gsddmm op {op!r}; known: {', '.join(GSDDMM_OPS)}")
    adj = as_adjacency(adj)
    q, squeeze_q = _as_matrix(q)
    k, squeeze_k = _as_matrix(k)
    if q.shape[0] != adj.shape[0] or k.shape[0] != adj.shape[1]:
        raise KernelError(
            f"gsddmm operands ({q.shape[0]}, {k.shape[0]}) do not "
            f"match the adjacency shape {adj.shape}")
    if q.shape[1] != k.shape[1]:
        raise KernelError(
            f"gsddmm feature widths differ: {q.shape[1]} vs "
            f"{k.shape[1]}")
    if FLAGS.sanitize:
        _sanitize_adj(adj, "kernels.gsddmm")
        check_finite(q, name="kernels.gsddmm lhs")
        check_finite(k, name="kernels.gsddmm rhs")

    edges = adj.edges()
    edge_dst, edge_src = edges.edge_dst, edges.edge_src
    if op == "dot":
        out = np.empty(adj.nnz, dtype=np.result_type(q, k))
        chunk = max(1, DOT_CHUNK_BYTES
                    // max(1, q.shape[1] * out.dtype.itemsize))
        for start in range(0, adj.nnz, chunk):
            stop = start + chunk
            _product(q[edge_dst[start:stop]], k[edge_src[start:stop]]
                     ).sum(axis=1, out=out[start:stop])
    elif op == "mul":
        out = _product(q[edge_dst], k[edge_src])
    else:
        out = q[edge_dst] + k[edge_src]
    PERF.counters["kernel_flops"] += ((2 if op == "dot" else 1)
                                      * adj.nnz * q.shape[1])
    if op != "dot" and squeeze_q and squeeze_k:
        return out[:, 0]
    return out


def _product(lhs, rhs):
    """``lhs * rhs`` in ``lhs``'s buffer (a fresh gather) if dtypes agree."""
    return np.multiply(lhs, rhs,
                       out=lhs if lhs.dtype == rhs.dtype else None)


def edge_softmax_forward(adj, scores):
    """Per-destination softmax over 1-D edge scores."""
    adj = as_adjacency(adj)
    scores = np.asarray(scores)
    if scores.ndim != 1 or len(scores) != adj.nnz:
        raise KernelError(
            f"edge_softmax expects one score per stored edge "
            f"({adj.nnz}), got shape {scores.shape}")
    if FLAGS.sanitize:
        check_finite(scores, name="kernels.edge_softmax scores")
    out = _edge_softmax(adj, scores)
    PERF.counters["kernel_flops"] += 5 * adj.nnz
    return out


def _edge_softmax(adj, scores):
    """Segment max, list-order float64 sums, probabilities cast back."""
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
