"""The thin autograd boundary over the kernel registry.

Follows the HGL-proto ``GSPMMFunction``/``GSDDMMFunction`` shape: each
public function runs its forward through the registry dispatch and
records a backward closure built from the *same* registry primitives —

* ``gspmm`` backward routes the output gradient source-ward through
  the explicitly materialized, memoized transposed CSR
  (:meth:`KernelCSR.transpose` — the ``rev_sparse`` idiom), and
  recovers the per-edge value gradient with ``gsddmm(adj, grad, x,
  "dot")``;
* ``gsddmm`` backward scatter-adds the edge gradient back to the
  destination- and source-side operands — as a ``copy_rhs`` ``gspmm``
  over the edge list's segment-view selection matrix, so the scatter
  is a registry kernel like every other aggregation;
* ``edge_softmax`` backward applies the per-segment Jacobian
  ``p * (g - sum_segment(g * p))`` with the same float64 segment
  accumulators as the forward (``np.bincount`` adds its weights in
  list order, exactly like ``np.add.at`` into float64 zeros).

Inputs may be plain arrays (forward only, arrays out) or
:class:`~repro.nn.tensor.Tensor` operands (a taped Tensor comes back).
The Tensor class is imported lazily, on the first call: ``repro.nn.layers``
imports this package at module scope, so a module-level import of the
tensor engine here would cycle.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from .adjacency import KernelCOO, as_adjacency
from .registry import (edge_softmax_forward, gsddmm_forward,
                       gspmm_forward, _row_counts)

__all__ = ["gspmm", "gsddmm", "edge_softmax"]


_TENSOR = None


def _tensor_cls():
    """:class:`~repro.nn.tensor.Tensor`, imported on the first call
    (module docstring) and kept: an ``import`` statement per ``gspmm``
    is a lock and two dictionary probes the hot path need not pay."""
    global _TENSOR
    if _TENSOR is None:
        from ..nn.tensor import Tensor
        _TENSOR = Tensor
    return _TENSOR


def _split(operand, tensor_cls):
    """``(tensor_or_None, array)`` for a Tensor-or-array operand."""
    if isinstance(operand, tensor_cls):
        return operand, operand.data
    return None, (None if operand is None else np.asarray(operand))


def _scatter_rows(edges, contribution, backend):
    """Sum per-edge ``contribution`` rows into ``edges``' destination
    rows, each row's edges in list order (the pinned accumulation
    order): ``selection @ contribution``."""
    return gspmm_forward(edges.segments().selection, contribution,
                         op="copy_rhs", backend=backend)


def gspmm(adj, x, values=None, op="mul", reduce="sum", backend=None):
    """Differentiable generalized SpMM (see
    :func:`~repro.kernels.registry.gspmm_forward` for semantics).

    Gradients flow into ``x`` and — when given as a Tensor — the
    per-edge ``values`` (GAT's attention coefficients).  The ``max``
    reduction is forward-only.
    """
    tensor_cls = _tensor_cls()
    adj = as_adjacency(adj)
    x_t, x_arr = _split(x, tensor_cls)
    v_t, v_arr = _split(values, tensor_cls)
    out = gspmm_forward(adj, x_arr, v_arr, op=op, reduce=reduce,
                        backend=backend)
    if x_t is None and v_t is None:
        return out
    if reduce == "max" and (x_t is not None and x_t.requires_grad
                            or v_t is not None and v_t.requires_grad):
        raise KernelError("gspmm reduce='max' is forward-only")

    def backward(grad):
        grad = grad if grad.ndim == 2 else grad[:, None]
        if reduce == "mean":
            grad = grad / _row_counts(adj, grad.dtype)[:, None]
        if x_t is not None and x_t.requires_grad:
            if isinstance(adj, KernelCOO):
                routed = gspmm_forward(adj.reverse(), grad, v_arr,
                                       op=op, backend=backend)
            else:
                # Explicit values ride in the *original* storage order;
                # the transpose's stored edges are permuted, so the
                # values must be permuted alongside them.
                v_routed = None if v_arr is None else \
                    v_arr[adj.transpose_permutation()]
                routed = gspmm_forward(adj.transpose(), grad, v_routed,
                                       op=op, backend=backend)
            x_t._accumulate(routed if x_arr.ndim == 2
                            else routed[:, 0])
        if v_t is not None and v_t.requires_grad:
            features = x_arr if x_arr.ndim == 2 else x_arr[:, None]
            v_t._accumulate(
                gsddmm_forward(adj, grad, features, op="dot",
                               backend=backend))

    parents = tuple(p for p in (x_t, v_t) if p is not None)
    return tensor_cls._result(out, parents, backward)


def gsddmm(adj, q, k, op="add", backend=None):
    """Differentiable generalized SDDMM: per stored edge ``(i, j)``,
    ``s[e] = op(q[i], k[j])`` (``q`` destination-side, ``k``
    source-side).  The backward scatter-adds the edge gradient back to
    both operands."""
    tensor_cls = _tensor_cls()
    adj = as_adjacency(adj)
    q_t, q_arr = _split(q, tensor_cls)
    k_t, k_arr = _split(k, tensor_cls)
    out = gsddmm_forward(adj, q_arr, k_arr, op=op, backend=backend)
    if q_t is None and k_t is None:
        return out

    edges = adj.edges()
    edge_dst, edge_src = edges.edge_dst, edges.edge_src
    q2 = q_arr if q_arr.ndim == 2 else q_arr[:, None]
    k2 = k_arr if k_arr.ndim == 2 else k_arr[:, None]

    def backward(grad):
        grad2 = grad if grad.ndim == 2 else grad[:, None]
        if k_t is not None and k_t.requires_grad:
            if op == "add":
                contribution = np.broadcast_to(
                    grad2, (adj.nnz, k2.shape[1]))
            else:  # mul, dot
                contribution = grad2 * q2[edge_dst]
            routed = _scatter_rows(edges.reverse(), contribution,
                                   backend)
            k_t._accumulate(routed if k_arr.ndim == 2
                            else routed[:, 0])
        if q_t is not None and q_t.requires_grad:
            if op == "add":
                contribution = np.broadcast_to(
                    grad2, (adj.nnz, q2.shape[1]))
            else:  # mul, dot
                contribution = grad2 * k2[edge_src]
            routed = _scatter_rows(edges, contribution, backend)
            q_t._accumulate(routed if q_arr.ndim == 2
                            else routed[:, 0])

    # Parents source-side first: the backward tape then replays the
    # source-side branch before the destination-side one, preserving
    # the gradient accumulation order (and therefore the bits) of the
    # pre-registry gather/add formulation of GAT's score computation.
    parents = tuple(p for p in (k_t, q_t) if p is not None)
    return tensor_cls._result(out, parents, backward)


def edge_softmax(adj, scores, backend=None):
    """Differentiable per-destination softmax over 1-D edge scores
    (GAT's attention normalization)."""
    tensor_cls = _tensor_cls()
    adj = as_adjacency(adj)
    s_t, s_arr = _split(scores, tensor_cls)
    probs = edge_softmax_forward(adj, s_arr, backend=backend)
    if s_t is None:
        return probs

    edge_dst = adj.edges().edge_dst

    def backward(grad):
        # dx = p * (g - sum_segment(g * p)), float64 accumulators as
        # in the forward.
        seg_dot = np.bincount(edge_dst, weights=grad * probs,
                              minlength=adj.shape[0])
        s_t._accumulate(probs * (grad - seg_dot[edge_dst]))

    return tensor_cls._result(probs, (s_t,), backward)
