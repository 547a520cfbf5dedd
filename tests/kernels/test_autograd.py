"""Central-difference gradient checks for the fused kernel backward.

Each check builds a scalar loss through the differentiable kernel
wrappers (:func:`repro.kernels.gspmm` / :func:`~repro.kernels.gsddmm` /
:func:`~repro.kernels.edge_softmax`), runs the taped backward — which
routes gradients through the memoized transposed CSR or the reversed
COO — and compares against a numeric gradient of the same loss.  The
losses are weighted sums (fixed random weights) so mis-routed edges
cannot cancel out.
"""

import numpy as np
import pytest

from repro.kernels import edge_softmax, gsddmm, gspmm
from repro.nn import Tensor

from .conftest import coo_cases, csr_cases


def numeric_grad(fn, x, eps=1e-5):
    """Central-difference gradient of scalar ``fn`` at array ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = fn(x)
        flat[i] = original - eps
        low = fn(x)
        flat[i] = original
        out[i] = (high - low) / (2 * eps)
    return grad


def check_grad(build, shape, seed=0, tol=1e-4):
    """Compare taped and numeric gradients of a scalar-valued loss."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)

    tensor = Tensor(x.copy(), requires_grad=True)
    build(tensor).backward()
    auto = tensor.grad

    numeric = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x)
    assert np.allclose(auto, numeric, atol=tol, rtol=tol), \
        f"max err {np.abs(auto - numeric).max()}"


def _weights(rows, cols, seed):
    return np.random.default_rng(seed).normal(size=(rows, cols))


CSR = csr_cases()
COO = coo_cases()
GRAD_CSR = ["block_loops", "block_plain", "zero_rows",
            "rect_weighted", "empty"]
GRAD_COO = ["gat_block", "repeated_edges", "empty"]


@pytest.mark.parametrize("case", GRAD_CSR)
@pytest.mark.parametrize("reduce", ["sum", "mean"])
class TestGspmmCsrGrads:
    def test_x_grad(self, case, reduce):
        adj = CSR[case]
        w = _weights(adj.shape[0], 3, seed=1)

        def build(x):
            return (gspmm(adj, x, reduce=reduce) * w).sum()

        check_grad(build, (adj.shape[1], 3), seed=2)

    def test_copy_rhs_x_grad(self, case, reduce):
        adj = CSR[case]
        w = _weights(adj.shape[0], 2, seed=3)

        def build(x):
            return (gspmm(adj, x, op="copy_rhs", reduce=reduce)
                    * w).sum()

        check_grad(build, (adj.shape[1], 2), seed=4)

    def test_explicit_values_x_grad(self, case, reduce):
        """Explicit edge values override the stored CSR data; the
        backward must permute them into the transpose's edge order
        (regression: routing them unpermuted silently mis-weights the
        x-gradient on any CSR with a non-identity transpose)."""
        adj = CSR[case]
        values = np.linspace(0.5, 1.5, adj.nnz)
        w = _weights(adj.shape[0], 3, seed=21)

        def build(x):
            return (gspmm(adj, x, values=values, reduce=reduce)
                    * w).sum()

        check_grad(build, (adj.shape[1], 3), seed=22)

    def test_explicit_values_grad(self, case, reduce):
        adj = CSR[case]
        features = np.random.default_rng(23).normal(
            size=(adj.shape[1], 3))
        w = _weights(adj.shape[0], 3, seed=24)

        def build(values):
            return (gspmm(adj, features, values=values,
                          reduce=reduce) * w).sum()

        check_grad(build, (adj.nnz,), seed=25)


@pytest.mark.parametrize("case", GRAD_COO)
class TestGspmmCooGrads:
    def test_x_grad(self, case):
        adj = COO[case]
        values = np.linspace(0.5, 1.5, adj.nnz)
        w = _weights(adj.shape[0], 3, seed=5)

        def build(x):
            return (gspmm(adj, x, values=values) * w).sum()

        check_grad(build, (adj.shape[1], 3), seed=6)

    def test_values_grad(self, case):
        adj = COO[case]
        features = np.random.default_rng(7).normal(
            size=(adj.shape[1], 3))
        w = _weights(adj.shape[0], 3, seed=8)

        def build(values):
            return (gspmm(adj, features, values=values) * w).sum()

        check_grad(build, (adj.nnz,), seed=9)

    def test_joint_grads_match_numeric(self, case):
        """x- and values-gradients together (the GAT shape)."""
        adj = COO[case]
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=(adj.shape[1], 2))
        v0 = rng.normal(size=adj.nnz)
        w = _weights(adj.shape[0], 2, seed=11)

        x_t = Tensor(x0.copy(), requires_grad=True)
        v_t = Tensor(v0.copy(), requires_grad=True)
        (gspmm(adj, x_t, values=v_t) * w).sum().backward()

        numeric_x = numeric_grad(
            lambda arr: float((gspmm(adj, arr, values=v0) * w).sum()),
            x0.copy())
        numeric_v = numeric_grad(
            lambda arr: float((gspmm(adj, x0, values=arr) * w).sum()),
            v0.copy())
        assert np.allclose(x_t.grad, numeric_x, atol=1e-4)
        assert np.allclose(v_t.grad, numeric_v, atol=1e-4)


@pytest.mark.parametrize("op", ["add", "mul", "dot"])
@pytest.mark.parametrize("case", GRAD_COO)
class TestGsddmmGrads:
    def test_q_grad(self, case, op):
        adj = COO[case]
        k = np.random.default_rng(12).normal(size=(adj.shape[1], 3))
        width = 1 if op == "dot" else 3
        w = _weights(adj.nnz, width, seed=13)[:, 0] if op == "dot" \
            else _weights(adj.nnz, width, seed=13)

        def build(q):
            return (gsddmm(adj, q, k, op=op) * w).sum()

        check_grad(build, (adj.shape[0], 3), seed=14)

    def test_k_grad(self, case, op):
        adj = COO[case]
        q = np.random.default_rng(15).normal(size=(adj.shape[0], 3))
        w = _weights(adj.nnz, 1, seed=16)[:, 0] if op == "dot" \
            else _weights(adj.nnz, 3, seed=16)

        def build(k):
            return (gsddmm(adj, q, k, op=op) * w).sum()

        check_grad(build, (adj.shape[1], 3), seed=17)


@pytest.mark.parametrize("case", ["gat_block", "repeated_edges"])
class TestEdgeSoftmaxGrads:
    def test_scores_grad(self, case):
        adj = COO[case]
        w = _weights(adj.nnz, 1, seed=18)[:, 0]

        def build(scores):
            return (edge_softmax(adj, scores) * w).sum()

        check_grad(build, (adj.nnz,), seed=19, tol=1e-3)


class TestForwardOnlyAndArrays:
    def test_array_inputs_return_arrays(self):
        adj = CSR["block_loops"]
        x = np.ones((adj.shape[1], 2), dtype=np.float32)
        out = gspmm(adj, x)
        assert isinstance(out, np.ndarray)
        coo = COO["gat_block"]
        scores = np.zeros(coo.nnz, dtype=np.float32)
        assert isinstance(edge_softmax(coo, scores), np.ndarray)
