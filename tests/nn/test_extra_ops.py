"""Gradient checks for the extended tensor op set."""

import numpy as np

from repro.nn import Tensor

from .test_tensor import check_op, numeric_grad


class TestExtraOps:
    def test_div_gradcheck(self):
        other = Tensor(np.random.default_rng(30).uniform(0.5, 2.0,
                                                         size=(3, 3)))
        check_op(lambda x: (x / other).sum(), (3, 3), seed=30)

    def test_div_denominator_grad(self):
        rng = np.random.default_rng(31)
        numerator = rng.normal(size=(3, 2))

        def build(d):
            return (Tensor(numerator) / d).sum()

        d = Tensor(rng.uniform(0.5, 2.0, size=(3, 2)),
                   requires_grad=True)
        build(d).backward()
        numeric = numeric_grad(lambda arr: float(build(Tensor(arr)).data),
                               d.data.copy())
        assert np.allclose(d.grad, numeric, atol=2e-2)

    def test_log_gradcheck(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.uniform(0.5, 3.0, size=(3, 3)).astype(np.float64),
                   requires_grad=True)
        x.log().sum().backward()
        assert np.allclose(x.grad, 1.0 / x.data, atol=1e-5)

    def test_exp_log_inverse(self):
        data = np.random.default_rng(36).normal(size=(4,))
        roundtrip = Tensor(np.exp(data)).log()
        assert np.allclose(roundtrip.data, data, atol=1e-5)

    def test_l2_normalize_unit_rows(self):
        x = Tensor(np.random.default_rng(37).normal(size=(5, 8)))
        norms = np.linalg.norm(x.l2_normalize_rows().data, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_l2_normalize_gradcheck(self):
        check_op(lambda x: (x.l2_normalize_rows()
                            * Tensor(np.arange(8.0))).sum(),
                 (3, 8), seed=38)

    def test_l2_normalize_zero_row_safe(self):
        x = Tensor(np.zeros((2, 4)), requires_grad=True)
        out = x.l2_normalize_rows()
        out.sum().backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(x.grad))
