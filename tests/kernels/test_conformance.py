"""Conformance: the compiled kernels, byte-identical to the numpy
reference oracle over the full op/reduce/dtype/adjacency matrix.

"Byte-identical" is literal: outputs are compared with ``tobytes()``,
so a kernel that is merely *close* (different accumulation order,
different intermediate precision) fails here even when ``allclose``
would pass.  This is the property the golden end-to-end tests rest on.

Each case runs both paths of ``_reference_oracle.PATHS``: the shipped
``scipy`` row walk, and the oracle swapped into the seam (which pins
the validation, ``mean`` and dtype layer wrapped around it).
``reduce='max'`` has no kernel; its cases pin the typed rejection.
"""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import (edge_softmax_forward, gsddmm_forward,
                           gspmm_forward)
from repro.perf import PERF

from ._call_spy import kernel_calls
from ._reference_oracle import PATHS, kernel_path, reference_kernels

DTYPES = (np.float32, np.float64)


def _features(adj, dtype, seed=0, dim=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((adj.shape[1], dim)).astype(dtype)


def _assert_bytes_equal(out, reference):
    out = np.asarray(out)
    reference = np.asarray(reference)
    assert out.dtype == reference.dtype
    assert out.shape == reference.shape
    assert out.tobytes() == reference.tobytes()


def _on_both(backend, kernel, *args, **kwargs):
    """``kernel`` on the oracle, then on path ``backend``."""
    with reference_kernels():
        reference = kernel(*args, **kwargs)
    with kernel_path(backend):
        return kernel(*args, **kwargs), reference


@pytest.mark.parametrize("backend", PATHS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("reduce", ["sum", "mean", "max"])
@pytest.mark.parametrize("op", ["mul", "copy_rhs"])
class TestGspmmConformance:
    def test_csr(self, backend, dtype, reduce, op, csr_case):
        x = _features(csr_case, dtype)
        if reduce == "max":
            with kernel_path(backend), \
                    pytest.raises(KernelError, match="unknown gspmm reduce"):
                gspmm_forward(csr_case, x, op=op, reduce=reduce)
            return
        _assert_bytes_equal(*_on_both(backend, gspmm_forward, csr_case,
                                      x, op=op, reduce=reduce))

    def test_coo(self, backend, dtype, reduce, op, coo_case):
        values = np.linspace(-1.0, 1.0,
                             coo_case.nnz).astype(np.float32)
        x = _features(coo_case, dtype, seed=1)
        if reduce == "max":
            with kernel_path(backend), \
                    pytest.raises(KernelError, match="unknown gspmm reduce"):
                gspmm_forward(coo_case, x, values=values, op=op,
                              reduce=reduce)
            return
        _assert_bytes_equal(*_on_both(backend, gspmm_forward, coo_case,
                                      x, values=values, op=op,
                                      reduce=reduce))


@pytest.mark.parametrize("backend", PATHS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", ["add", "mul", "dot"])
class TestGsddmmConformance:
    def test_csr(self, backend, dtype, op, csr_case):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((csr_case.shape[0], 3)).astype(dtype)
        k = rng.standard_normal((csr_case.shape[1], 3)).astype(dtype)
        _assert_bytes_equal(*_on_both(backend, gsddmm_forward, csr_case,
                                      q, k, op=op))

    def test_coo(self, backend, dtype, op, coo_case):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((coo_case.shape[0], 3)).astype(dtype)
        k = rng.standard_normal((coo_case.shape[1], 3)).astype(dtype)
        _assert_bytes_equal(*_on_both(backend, gsddmm_forward, coo_case,
                                      q, k, op=op))


@pytest.mark.parametrize("backend", PATHS)
class TestEdgeSoftmaxConformance:
    def test_coo(self, backend, coo_case):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(coo_case.nnz).astype(np.float32)
        out, reference = _on_both(backend, edge_softmax_forward,
                                  coo_case, scores)
        _assert_bytes_equal(out, reference)
        # Probabilities per populated destination sum to ~1.
        if coo_case.nnz:
            sums = np.zeros(coo_case.shape[0])
            np.add.at(sums, coo_case.edge_dst, out)
            populated = sums > 0
            assert np.allclose(sums[populated], 1.0)


class TestDispatchSemantics:
    def test_unknown_backend_raises(self, csr_case):
        """There is one kernel path: a backend request is an error,
        never silently ignored."""
        with pytest.raises(TypeError, match="backend"):
            gspmm_forward(csr_case, _features(csr_case, np.float32),
                          backend="cuda")

    def test_unknown_op_raises(self, csr_case):
        with pytest.raises(KernelError, match="unknown gspmm op"):
            gspmm_forward(csr_case, _features(csr_case, np.float32),
                          op="divide")

    def test_shape_mismatch_raises(self, csr_case):
        wrong = np.ones((csr_case.shape[1] + 1, 2), dtype=np.float32)
        with pytest.raises(KernelError, match="rows"):
            gspmm_forward(csr_case, wrong)

    def test_wider_values_raise(self, coo_case):
        """float64 edge values on float32 features: a float64 product
        cannot accumulate into a float32 output on the compiled walk,
        so the kernel names both dtypes instead of changing one (the
        CSR case is in ``test_block_pipeline.py``)."""
        x = _features(coo_case, np.float32, seed=5)
        values = np.linspace(-1.0, 1.0, coo_case.nnz)
        before = PERF.snapshot()
        with pytest.raises(KernelError,
                           match=r"values \(float64\) are wider than "
                                 r"the features \(float32\)"):
            gspmm_forward(coo_case, x, values=values)
        # Rejected before the walk: nothing is billed.
        assert PERF.delta(before).get("kernel_flops", 0) == 0
        # Narrower values than the features are fine.
        _assert_bytes_equal(*_on_both(
            "scipy", gspmm_forward, coo_case, x.astype(np.float64),
            values=values.astype(np.float32)))

    def test_gsddmm_is_shared_not_a_fallback(self, coo_case):
        """gsddmm has no accumulation order to pin: one gather
        implementation, billed as one gsddmm call."""
        rng = np.random.default_rng(5)
        q = rng.standard_normal((coo_case.shape[0], 2)).astype(np.float32)
        k = rng.standard_normal((coo_case.shape[1], 2)).astype(np.float32)
        before = PERF.snapshot()
        with kernel_calls() as calls:
            gsddmm_forward(coo_case, q, k, op="add")
        billed = {name: value
                  for name, value in PERF.delta(before).items()
                  if name.startswith("kernel_") and value}
        assert calls == {"gsddmm": 1}
        assert billed.pop("kernel_flops", 0) == coo_case.nnz * 2
        assert not billed

    def test_coo_kernels_do_not_fall_back(self, coo_case):
        """COO aggregation, its reverse and the edge softmax all run on
        the compiled walk over the segment view, each billed once."""
        x = _features(coo_case, np.float32)
        values = np.linspace(-1.0, 1.0, coo_case.nnz).astype(np.float32)
        ones = np.ones((coo_case.shape[0], 2), dtype=np.float32)
        with kernel_calls() as calls:
            out = gspmm_forward(coo_case, x, values=values)
            back = gspmm_forward(coo_case.reverse(), ones, values=values)
            probs = edge_softmax_forward(coo_case, values)
        assert calls == {"gspmm": 2, "edge_softmax": 1}
        with reference_kernels():
            _assert_bytes_equal(out, gspmm_forward(coo_case, x,
                                                   values=values))
            _assert_bytes_equal(back, gspmm_forward(
                coo_case.reverse(), ones, values=values))
            _assert_bytes_equal(probs,
                                edge_softmax_forward(coo_case, values))

    def test_call_and_flop_counters(self, csr_case):
        x = _features(csr_case, np.float32, dim=4)
        before = PERF.snapshot()
        with kernel_calls() as calls:
            gspmm_forward(csr_case, x)
        delta = PERF.delta(before)
        assert calls == {"gspmm": 1}
        assert delta.get("kernel_flops", 0) == 2 * csr_case.nnz * 4


class TestScipyDispatchCaching:
    """Repeated dispatch through a persistent operator must not build
    scipy matrices (regression: the ``copy_rhs`` and explicit-values
    paths once allocated a fresh ``csr_matrix`` on every call; now the
    kernel hands the operator's own arrays to ``csr_matvecs``, and the
    operator has no scipy conversion left to trigger)."""

    def test_copy_rhs_matrix_is_cached(self, csr_case):
        x = _features(csr_case, np.float32)
        first = gspmm_forward(csr_case, x, op="copy_rhs")
        again = gspmm_forward(csr_case, x, op="copy_rhs")
        _assert_bytes_equal(again, first)
        with reference_kernels():
            _assert_bytes_equal(first, gspmm_forward(csr_case, x,
                                                     op="copy_rhs"))

    def test_values_matrix_is_cached_across_value_swaps(self, csr_case):
        x = _features(csr_case, np.float32)
        v1 = np.linspace(0.5, 1.5, csr_case.nnz).astype(np.float32)
        v2 = np.linspace(-2.0, 2.0, csr_case.nnz).astype(np.float32)
        out1 = gspmm_forward(csr_case, x, values=v1)
        out2 = gspmm_forward(csr_case, x, values=v2)
        stored = csr_case.data.copy()
        with reference_kernels():
            _assert_bytes_equal(out1, gspmm_forward(csr_case, x,
                                                    values=v1))
            _assert_bytes_equal(out2, gspmm_forward(csr_case, x,
                                                    values=v2))
        # Per-call values never leak into the operator's own data.
        assert csr_case.data.tobytes() == stored.tobytes()

    def test_values_path_does_not_corrupt_copy_rhs(self, csr_case):
        """A values dispatch in between must leave the all-ones
        (``copy_rhs``) product untouched."""
        x = _features(csr_case, np.float32)
        with reference_kernels():
            expected = gspmm_forward(csr_case, x, op="copy_rhs")
        gspmm_forward(csr_case, x, op="copy_rhs")
        gspmm_forward(csr_case, x,
                      values=np.full(csr_case.nnz, 3.0,
                                     dtype=np.float32))
        out = gspmm_forward(csr_case, x, op="copy_rhs")
        _assert_bytes_equal(out, expected)
