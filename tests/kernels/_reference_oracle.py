"""The numpy reference kernels, kept verbatim as the oracle.

:func:`gspmm` and :func:`edge_softmax` below are the bodies of the
numpy reference backend ``repro.kernels`` once dispatched to next to
scipy's compiled one.  They fix not just the *values* but the
*accumulation order* of every kernel, and the shipped compiled path
must reproduce them byte for byte:

* CSR aggregation scatter-adds stored entries in storage order via
  ``np.add.at`` — the exact per-row sequential order scipy's
  ``csr_matvecs`` uses.
* COO aggregation scatter-adds edges in list order (GAT's contract:
  block CSR edges first, appended self-loops last).
* ``edge_softmax`` runs the per-segment max/sum in float64 and casts
  the probabilities back (``segment_softmax`` of ``tests/nn``'s oracle).

``np.add.at`` is an unbuffered ufunc: repeated indices accumulate
sequentially in element order, which is the property the whole
bit-exactness story rests on.  Do not "fix" or speed up anything here.

:func:`reference_kernels` swaps them into ``repro.kernels.registry`` in
place of the compiled row walk for the ``with`` body — validation,
``mean``, counters and autograd stay the shipped ones — so whole
layers, models and training runs can be compared bit for bit.
:func:`kernel_path` names the two ways a test runs the kernels.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.kernels import registry

#: ``"reference"`` runs this oracle inside the seam, ``"scipy"`` the
#: shipped compiled path.
PATHS = ("reference", "scipy")


def _edge_endpoints(adj):
    """``(edge_dst, edge_src, values_or_None)`` in storage order for
    either adjacency layout."""
    edges = adj.edges()
    return edges.edge_dst, edges.edge_src, getattr(adj, "data", None)


def gspmm(adj, x, values, op):
    """Sum-reduce aggregation: y[i] = sum over edges (i, j) of
    values[e] (*) x[j]."""
    edge_dst, edge_src, stored = _edge_endpoints(adj)
    if values is None:
        values = stored
    gathered = x[edge_src]
    contribution = gathered if op == "copy_rhs" \
        else values[:, None] * gathered
    out = np.zeros((adj.shape[0], x.shape[1]), dtype=x.dtype)
    np.add.at(out, edge_dst, contribution)
    return out


def edge_softmax(adj, scores):
    """Per-destination softmax over edge scores."""
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


@contextmanager
def reference_kernels():
    """Run the ``with`` body's aggregations on the scatter oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "_spmm", gspmm)
        patch.setattr(registry, "_edge_softmax", edge_softmax)
        yield


def kernel_path(name):
    """The oracle for ``"reference"``; any other name (``"scipy"``,
    ``"auto"``) is the shipped path."""
    return reference_kernels() if name == "reference" else nullcontext()
