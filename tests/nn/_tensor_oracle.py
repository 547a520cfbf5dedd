"""The three sparse ops the autograd engine used to carry.

``Tensor.spmm``, ``Tensor.segment_softmax`` and ``Tensor.edge_aggregate``
had no caller in ``src/`` once GAT and the mean aggregation moved onto
:mod:`repro.kernels`; they live on here, bodies verbatim (``self``
spelled ``x``), as the ``np.add.at`` / scipy formulation the tests in
this directory still compare against.
"""

import numpy as np

from repro.errors import TrainingError
from repro.nn import Tensor


def spmm(x, matrix):
    """Sparse aggregation ``matrix @ x`` with a fixed (non-grad)
    scipy sparse ``matrix``; backward multiplies by its transpose.

    The transpose CSR is built lazily (inference never pays for it)
    and memoized on the matrix object, so repeated backward passes
    through a reused aggregation operator transpose it once.
    """
    def backward(grad):
        if x.requires_grad:
            transpose = getattr(matrix, "_transpose_csr", None)
            if transpose is None:
                transpose = matrix.T.tocsr()
                try:
                    matrix._transpose_csr = transpose
                except AttributeError:
                    pass
            x._accumulate(transpose @ grad)

    return Tensor._result(matrix @ x.data, (x,), backward)


def segment_softmax(x, segments, num_segments=None):
    """Softmax over groups of a 1-D tensor: entries sharing a
    segment id normalize together (GAT's per-destination attention
    normalization).

    ``segments`` need not be sorted; any grouping works.
    """
    if x.data.ndim != 1:
        raise TrainingError("segment_softmax expects a 1-D tensor")
    segments = np.asarray(segments, dtype=np.int64)
    if len(segments) != len(x.data):
        raise TrainingError("segments must align with the tensor")
    count = int(num_segments if num_segments is not None
                else (segments.max() + 1 if len(segments) else 0))
    # Per-segment max for numerical stability.
    seg_max = np.full(count, -np.inf, dtype=np.float64)
    np.maximum.at(seg_max, segments, x.data)
    shifted = x.data - seg_max[segments]
    exp = np.exp(shifted)
    seg_sum = np.zeros(count, dtype=np.float64)
    np.add.at(seg_sum, segments, exp)
    seg_sum[seg_sum == 0] = 1.0
    probs = (exp / seg_sum[segments]).astype(x.data.dtype)

    def backward(grad):
        if x.requires_grad:
            # dx = p * (g - sum_segment(g * p))
            weighted = grad * probs
            seg_dot = np.zeros(count, dtype=np.float64)
            np.add.at(seg_dot, segments, weighted)
            x._accumulate(probs * (grad - seg_dot[segments]))

    return Tensor._result(probs, (x,), backward)


def edge_aggregate(sources, weights, edge_dst, edge_src, num_dst):
    """Weighted scatter aggregation over edges:
    ``out[d] = sum over edges e with dst d of weights[e] *
    sources[edge_src[e]]`` — GAT's attention-weighted message
    passing, differentiable in both the source features and the
    per-edge weights.
    """
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    edge_src = np.asarray(edge_src, dtype=np.int64)
    if weights.data.ndim != 1 or len(weights.data) != len(edge_dst) \
            or len(edge_dst) != len(edge_src):
        raise TrainingError("edge arrays and weights must align")
    gathered = sources.data[edge_src]
    contribution = weights.data[:, None] * gathered
    out = np.zeros((num_dst, sources.data.shape[1]),
                   dtype=sources.data.dtype)
    np.add.at(out, edge_dst, contribution)

    def backward(grad):
        per_edge_grad = grad[edge_dst]
        if sources.requires_grad:
            routed = np.zeros_like(sources.data)
            np.add.at(routed, edge_src,
                      weights.data[:, None] * per_edge_grad)
            sources._accumulate(routed)
        if weights.requires_grad:
            weights._accumulate(
                (per_edge_grad * gathered).sum(axis=1))

    return Tensor._result(out, (sources, weights), backward)
