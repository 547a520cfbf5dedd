"""Unit tests for the autograd engine, including numerical gradient
checks of every op."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn import Tensor, no_grad, softmax_cross_entropy

from ._tensor_oracle import spmm


def numeric_grad(fn, x, eps=1e-4):
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


def check_op(build, shape, seed=0, tol=2e-2):
    """Compare autograd and numeric gradients for a scalar-valued op."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape).astype(np.float64)

    tensor = Tensor(x.copy(), requires_grad=True)
    build(tensor).backward()
    auto = tensor.grad

    numeric = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x)
    assert np.allclose(auto, numeric, atol=tol, rtol=tol), \
        f"max err {np.abs(auto - numeric).max()}"


class TestGradientChecks:
    def test_matmul(self):
        w = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        check_op(lambda x: (x @ w).sum(), (5, 4))

    def test_matmul_weight_grad(self):
        rng = np.random.default_rng(2)
        x_data = rng.normal(size=(5, 4))

        def build(w):
            return (Tensor(x_data) @ w).sum()

        w = Tensor(rng.normal(size=(4, 3)).astype(np.float64),
                   requires_grad=True)
        build(w).backward()
        numeric = numeric_grad(lambda arr: float(build(Tensor(arr)).data),
                               w.data.copy())
        assert np.allclose(w.grad, numeric, atol=2e-2)

    def test_add_broadcast_bias(self):
        x_data = np.random.default_rng(3).normal(size=(6, 4))

        def build(b):
            return (Tensor(x_data) + b).sum()

        b = Tensor(np.zeros(4), requires_grad=True)
        build(b).backward()
        assert np.allclose(b.grad, np.full(4, 6.0))

    def test_mul(self):
        other = Tensor(np.random.default_rng(4).normal(size=(3, 3)))
        check_op(lambda x: (x * other).sum(), (3, 3))

    def test_sub_neg(self):
        other = Tensor(np.random.default_rng(5).normal(size=(3,)))
        check_op(lambda x: (x - other).sum(), (3,))

    def test_relu(self):
        check_op(lambda x: x.relu().sum(), (4, 4), seed=6)

    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda x: x.gather_rows(idx).sum(), (3, 4), seed=7)

    def test_leading_rows(self):
        weight = Tensor(np.random.default_rng(7).normal(size=(2, 4)))
        check_op(lambda x: (x.leading_rows(2) * weight).sum(), (3, 4),
                 seed=7)

    def test_leading_rows_has_the_bits_of_the_gather(self):
        """Same values forward and — signed zeros included — the same
        gradient bytes as ``gather_rows(arange(n))``'s scatter-add."""
        data = np.random.default_rng(0).normal(size=(5, 3)) \
            .astype(np.float32)
        upstream = np.array([[-0.0, 1.5, -2.0], [0.0, -0.0, 3.0]],
                            dtype=np.float32)
        grads = []
        for pick in (lambda x: x.leading_rows(2),
                     lambda x: x.gather_rows(np.arange(2))):
            x = Tensor(data.copy(), requires_grad=True)
            out = pick(x)
            assert out.data.tobytes() == data[:2].tobytes()
            out.backward(upstream)
            grads.append(x.grad)
        assert grads[0].tobytes() == grads[1].tobytes()
        assert not np.signbit(grads[0][0, 0])

    def test_concat(self):
        other = Tensor(np.random.default_rng(8).normal(size=(3, 2)))
        check_op(lambda x: x.concat(other).sum(), (3, 4), seed=8)

    def test_spmm(self):
        sp = pytest.importorskip("scipy.sparse")
        matrix = sp.random(4, 6, density=0.5, random_state=9,
                           format="csr")
        check_op(lambda x: spmm(x, matrix).sum(), (6, 3), seed=9)

    def test_mean(self):
        check_op(lambda x: x.mean(), (5, 2), seed=10)

    def test_softmax_cross_entropy(self):
        labels = np.array([0, 2, 1])
        check_op(lambda x: softmax_cross_entropy(x, labels), (3, 4),
                 seed=11)

    def test_chain(self):
        w = Tensor(np.random.default_rng(12).normal(size=(4, 4)))
        check_op(lambda x: ((x @ w).relu() @ w).sum(), (3, 4), seed=12)


class TestMechanics:
    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x + x).sum().backward()
        assert np.allclose(x.grad, 2.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(TrainingError):
            (x * 2).backward()

    def test_backward_explicit_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3).backward(np.ones((2, 2)))
        assert np.allclose(x.grad, 3.0)

    def test_no_grad_tracking_without_flag(self):
        x = Tensor(np.ones(3))
        y = (x * 2).sum()
        y.backward()
        assert x.grad is None

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with no_grad():
            out = x.dropout(0.5, np.random.default_rng(0))
        assert out is x

    def test_dropout_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((2000, 10)))
        out = x.dropout(0.5, rng)  # taping: the mask is drawn
        # Inverted dropout preserves the expectation.
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_invalid_p(self):
        x = Tensor(np.ones(3))
        with pytest.raises(TrainingError):
            x.dropout(1.0, np.random.default_rng(0))

    def test_int_input_promoted_to_float(self):
        x = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(x.data.dtype, np.floating)

    def test_diamond_graph_counts_paths(self):
        # y = a*a contributes grad 2a through two paths.
        a = Tensor(np.array([3.0]), requires_grad=True)
        (a * a).sum().backward()
        assert np.allclose(a.grad, 6.0)
