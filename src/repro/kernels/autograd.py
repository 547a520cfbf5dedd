"""The thin autograd boundary over the forward kernels.

Follows the HGL-proto ``GSPMMFunction``/``GSDDMMFunction`` shape: each
public function runs its forward kernel and records a backward closure
built from the *same* kernels —

* ``gspmm`` backward routes the output gradient source-ward through
  the explicitly materialized, memoized transposed CSR
  (:meth:`KernelCSR.transpose` — the ``rev_sparse`` idiom), and
  recovers the per-edge value gradient with ``gsddmm(adj, grad, x,
  "dot")``;
* ``gsddmm`` backward scatter-adds the edge gradient back to the
  destination- and source-side operands — as a ``copy_rhs`` ``gspmm``
  over the edge list's segment-view selection matrix, so the scatter
  is the compiled row walk like every other aggregation;
* ``edge_softmax`` backward applies the per-segment Jacobian
  ``p * (g - sum_segment(g * p))`` with the same float64 segment
  accumulators as the forward (``np.bincount`` adds its weights in
  list order, exactly like ``np.add.at`` into float64 zeros).

:func:`gat_attention` is one GAT head's whole attention — scores,
LeakyReLU, ``edge_softmax``, the weighted ``gspmm`` — as one node whose
backward is those rules run back to back (docs/architecture.md, "Fused
GAT attention").

Inputs may be plain arrays (forward only, arrays out) or
:class:`~repro.nn.tensor.Tensor` operands (a taped Tensor comes back).
The Tensor class is imported lazily, on the first call: ``repro.nn.layers``
imports this package at module scope, so a module-level import of the
tensor engine here would cycle.
"""

from __future__ import annotations

import numpy as np

from ..perf.sanitize import check_finite
from ..errors import KernelError
from ..perf import FLAGS, PERF
from .adjacency import KernelCOO, as_adjacency
from .registry import (DOT_CHUNK_BYTES, edge_softmax_forward,
                       gsddmm_forward, gspmm_forward, _row_counts)

__all__ = ["gspmm", "gsddmm", "edge_softmax", "gat_attention"]


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


def _scatter_rows(edges, contribution):
    """Sum per-edge ``contribution`` rows into ``edges``' destination
    rows, each row's edges in list order (the pinned accumulation
    order): ``selection @ contribution``."""
    return gspmm_forward(edges.segments().selection, contribution,
                         op="copy_rhs")


def gspmm(adj, x, values=None, op="mul", reduce="sum"):
    """Differentiable generalized SpMM (see
    :func:`~repro.kernels.registry.gspmm_forward` for semantics).

    Gradients flow into ``x`` and — when given as a Tensor — the
    per-edge ``values`` (GAT's attention coefficients).
    """
    tensor_cls = _tensor_cls()
    adj = as_adjacency(adj)
    x_t, x_arr = _split(x, tensor_cls)
    v_t, v_arr = _split(values, tensor_cls)
    out = gspmm_forward(adj, x_arr, v_arr, op=op, reduce=reduce)
    if x_t is None and v_t is None:
        return out

    def backward(grad):
        grad = grad if grad.ndim == 2 else grad[:, None]
        if reduce == "mean":
            grad = grad / _row_counts(adj, grad.dtype)[:, None]
        if x_t is not None and x_t.requires_grad:
            if isinstance(adj, KernelCOO):
                routed = gspmm_forward(adj.reverse(), grad, v_arr, op=op)
            else:
                # Explicit values ride in the *original* storage order;
                # the transpose's stored edges are permuted, so the
                # values must be permuted alongside them.
                v_routed = None if v_arr is None else \
                    v_arr[adj.transpose_permutation()]
                routed = gspmm_forward(adj.transpose(), grad, v_routed,
                                       op=op)
            x_t._accumulate(routed if x_arr.ndim == 2
                            else routed[:, 0])
        if v_t is not None and v_t.requires_grad:
            features = x_arr if x_arr.ndim == 2 else x_arr[:, None]
            v_t._accumulate(gsddmm_forward(adj, grad, features, op="dot"))

    parents = tuple(p for p in (x_t, v_t) if p is not None)
    return tensor_cls._result(out, parents, backward)


def gsddmm(adj, q, k, op="add"):
    """Differentiable generalized SDDMM: per stored edge ``(i, j)``,
    ``s[e] = op(q[i], k[j])`` (``q`` destination-side, ``k``
    source-side).  The backward scatter-adds the edge gradient back to
    both operands."""
    tensor_cls = _tensor_cls()
    adj = as_adjacency(adj)
    q_t, q_arr = _split(q, tensor_cls)
    k_t, k_arr = _split(k, tensor_cls)
    out = gsddmm_forward(adj, q_arr, k_arr, op=op)
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
            routed = _scatter_rows(edges.reverse(), contribution)
            k_t._accumulate(routed if k_arr.ndim == 2
                            else routed[:, 0])
        if q_t is not None and q_t.requires_grad:
            if op == "add":
                contribution = np.broadcast_to(
                    grad2, (adj.nnz, q2.shape[1]))
            else:  # mul, dot
                contribution = grad2 * k2[edge_src]
            routed = _scatter_rows(edges, contribution)
            q_t._accumulate(routed if q_arr.ndim == 2
                            else routed[:, 0])

    # Parents source-side first: the backward tape then replays the
    # source-side branch before the destination-side one, preserving
    # the gradient accumulation order (and therefore the bits) of the
    # pre-registry gather/add formulation of GAT's score computation.
    parents = tuple(p for p in (k_t, q_t) if p is not None)
    return tensor_cls._result(out, parents, backward)


def edge_softmax(adj, scores):
    """Differentiable per-destination softmax over 1-D edge scores
    (GAT's attention normalization)."""
    tensor_cls = _tensor_cls()
    adj = as_adjacency(adj)
    s_t, s_arr = _split(scores, tensor_cls)
    probs = edge_softmax_forward(adj, s_arr)
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


def _add_outer_products(out, src_grad, attn_src, dst_grad, attn_dst):
    """``out += src_grad * attn_src.T``, then ``out[:D] += dst_grad *
    attn_dst.T`` with ``D = len(dst_grad)``: the input gradients of the
    two score products, in the composed tape's order, a cache-sized
    block of rows at a time, so no ``(S, d)`` product is allocated.

    Each product is ``einsum``'s outer product (~2x numpy's row-by-row
    broadcast), in the operands' dtype and cast into ``out``'s as the
    tape's ``_accumulate`` did: one rounded multiply per element,
    written as ``+0.0`` where the broadcast product is ``-0.0``.
    ``out`` is never ``-0.0`` — it starts as a sum into zeros, and
    ``x + y`` is ``-0.0`` only when both are — so adding either zero
    leaves the same bits."""
    rows, width = out.shape
    num_dst = len(dst_grad)
    chunk = max(1, DOT_CHUNK_BYTES // max(1, width * out.itemsize))
    scratch = np.empty((min(chunk, rows), width), dtype=out.dtype)
    terms = ((src_grad, attn_src, rows), (dst_grad, attn_dst, num_dst))
    for start in range(0, rows, chunk):
        for column, vector, limit in terms:
            stop = min(start + chunk, limit)
            if stop <= start:
                continue
            product = scratch[:stop - start]
            np.einsum("i,j->ij", column[start:stop, 0], vector[:, 0],
                      out=product, casting="same_kind",
                      dtype=np.result_type(column, vector))
            out[start:stop] += product


def gat_attention(edges, transformed, attn_src, attn_dst, negative_slope):
    """One GAT attention head over an edge list, as one tape node.

    Per stored edge ``e = (i, j)``: the score ``LeakyReLU((transformed
    @ attn_dst)[i] + (transformed @ attn_src)[j])``, the attention
    ``alpha = edge_softmax(score)`` over each destination's edges, and
    the output row ``y[i] = sum_e alpha[e] * transformed[j]`` — what
    ``gsddmm`` add, ``leaky_relu``, ``edge_softmax`` and a weighted
    ``gspmm`` computed as eight tape nodes, to the byte.
    ``transformed`` is ``(S, d)`` over the edge list's source columns,
    its first ``D`` rows the destinations (the MFG convention), and the
    attention vectors are ``(d, 1)``.

    The backward runs the composed nodes' rules back to back and hands
    ``transformed`` one gradient: the reverse-``gspmm`` term plus the
    ``attn_src`` outer product plus the ``attn_dst`` one on the first
    ``D`` rows, added in the composed tape's order (docs/architecture.md,
    "Fused GAT attention").  Those are the composed chain's bytes
    whenever nothing else consumes ``transformed``, as in
    :class:`~repro.nn.GATConv`.
    """
    tensor_cls = _tensor_cls()
    edges = as_adjacency(edges).edges()
    t_t, features = _split(transformed, tensor_cls)
    src_t, a_src = _split(attn_src, tensor_cls)
    dst_t, a_dst = _split(attn_dst, tensor_cls)
    num_dst, num_src = edges.shape
    if features.ndim != 2 or len(features) != num_src \
            or num_dst > num_src \
            or a_src.shape != (features.shape[1], 1) \
            or a_dst.shape != (features.shape[1], 1):
        raise KernelError(
            f"gat_attention needs (S, d) features over the {num_src} "
            f"source columns (S >= {num_dst} destinations) and (d, 1) "
            f"attention vectors; got {features.shape}, {a_src.shape} "
            f"and {a_dst.shape}")
    # Both products over all S rows, as Tensor.affine computed them: a
    # gemv's bits may depend on its row count, so the destinations'
    # scores are the leading rows of the full product.
    score_src = features @ a_src
    score_dst_full = features @ a_dst
    score_dst = score_dst_full[:num_dst]
    if FLAGS.sanitize:
        check_finite(score_dst, name="kernels.gat_attention dst scores")
        check_finite(score_src, name="kernels.gat_attention src scores")
    edge_dst, edge_src = edges.edge_dst, edges.edge_src
    raw = score_dst[:, 0][edge_dst] + score_src[:, 0][edge_src]
    PERF.counters["kernel_flops"] += edges.nnz   # the add gsddmm billed
    scale = np.where(raw > 0, raw.dtype.type(1),
                     raw.dtype.type(negative_slope))
    scores = raw * scale
    alpha = edge_softmax_forward(edges, scores)
    out = gspmm_forward(edges, features, alpha, op="mul")
    if t_t is None and src_t is None and dst_t is None:
        return out

    def backward(grad):
        need_t = t_t is not None and t_t.requires_grad
        need_src = need_t or src_t is not None and src_t.requires_grad
        need_dst = need_t or dst_t is not None and dst_t.requires_grad
        # Each intermediate gradient is cast to its tensor's dtype, as
        # the composed tape's _accumulate did on arrival.
        alpha_grad = np.asarray(
            gsddmm_forward(edges, grad, features, op="dot"),
            dtype=alpha.dtype)
        seg_dot = np.bincount(edge_dst, weights=alpha_grad * alpha,
                              minlength=num_dst)
        raw_grad = np.asarray(alpha * (alpha_grad - seg_dot[edge_dst]),
                              dtype=scores.dtype) * scale
        raw_grad = raw_grad[:, None]
        if need_src:
            src_grad = np.asarray(
                _scatter_rows(edges.reverse(), raw_grad),
                dtype=score_src.dtype)
            if src_t is not None and src_t.requires_grad:
                src_t._accumulate(features.T @ src_grad)
        if need_dst:
            dst_grad = np.zeros_like(score_dst_full)
            # ``+=`` into zeros, as leading_rows did: -0.0 becomes +0.0.
            dst_grad[:num_dst] += _scatter_rows(edges, raw_grad)
            if dst_t is not None and dst_t.requires_grad:
                dst_t._accumulate(features.T @ dst_grad)
        if need_t:
            t_grad = np.asarray(
                gspmm_forward(edges.reverse(), grad, alpha, op="mul"),
                dtype=features.dtype)
            _add_outer_products(t_grad, src_grad, a_src,
                                dst_grad[:num_dst], a_dst)
            t_t._accumulate(t_grad)

    parents = tuple(p for p in (t_t, src_t, dst_t) if p is not None)
    return tensor_cls._result(out, parents, backward)
