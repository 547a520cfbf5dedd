"""Property tests for the explicitly materialized transposed CSR.

The backward pass of every CSR ``gspmm`` routes gradients through
:meth:`KernelCSR.transpose`, so three properties carry the whole fused
backward: the transpose round-trips exactly, it is memoized (one
materialization per operator, both directions), and the block-level
memoization lives and dies with the block it was read off.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.kernels import (KernelCSR, gspmm, normalized_block_adjacency,
                           transpose_csr)
from repro.nn import Tensor
from repro.perf import PERF
from repro.sampling import build_block

from ._operator_oracle import block_operator_reference
from .conftest import csr_cases, scipy_of


def _random_csr_arrays(seed, num_rows=9, num_cols=13, density=0.3):
    rng = np.random.default_rng(seed)
    mask = rng.random((num_rows, num_cols)) < density
    counts = mask.sum(axis=1)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = np.concatenate(
        [rng.permutation(np.flatnonzero(mask[i]))
         for i in range(num_rows)]
        or [np.empty(0, dtype=np.int64)]).astype(np.int64)
    data = rng.standard_normal(len(indices)).astype(np.float32)
    return indptr, indices, data, (num_rows, num_cols)


class TestTransposeRoundtrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_double_transpose_roundtrips_arrays(self, seed):
        indptr, indices, data, shape = _random_csr_arrays(seed)
        t_indptr, t_indices, t_data = transpose_csr(
            indptr, indices, data, num_cols=shape[1])
        # Transposing the transpose must reproduce a *canonicalized*
        # form of the original: same entries, each row sorted by
        # column-major scan order.  For already-canonical inputs the
        # round trip is exact.
        c_indptr, c_indices, c_data = transpose_csr(
            t_indptr, t_indices, t_data, num_cols=shape[0])
        r_indptr, r_indices, r_data = transpose_csr(
            c_indptr, c_indices, c_data, num_cols=shape[1])
        assert t_indptr.tobytes() == r_indptr.tobytes()
        assert t_indices.tobytes() == r_indices.tobytes()
        assert t_data.tobytes() == r_data.tobytes()

    @pytest.mark.parametrize("case", sorted(csr_cases()))
    def test_transpose_matches_dense(self, case):
        adj = csr_cases()[case]
        transpose = adj.transpose()
        assert transpose.shape == (adj.shape[1], adj.shape[0])
        assert np.array_equal(scipy_of(transpose).toarray(),
                              scipy_of(adj).toarray().T)

    def test_transpose_matches_scipy_layout(self):
        import scipy.sparse as sp
        for seed in range(6):
            indptr, indices, data, shape = _random_csr_arrays(seed)
            matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
            expected = matrix.T.tocsr()
            t_indptr, t_indices, t_data = transpose_csr(
                indptr, indices, data, num_cols=shape[1])
            assert t_indptr.tobytes() \
                == expected.indptr.astype(np.int64).tobytes()
            assert t_indices.tobytes() \
                == expected.indices.astype(np.int64).tobytes()
            assert t_data.tobytes() == expected.data.tobytes()


class TestTransposePermutation:
    """The memoized stable argsort relating original and transposed
    edge storage order — what lets per-edge values given in original
    order ride the transposed operator in the fused backward."""

    @pytest.mark.parametrize("case", sorted(csr_cases()))
    def test_permutation_maps_data_to_transpose_order(self, case):
        adj = csr_cases()[case]
        perm = adj.transpose_permutation()
        assert perm.shape == (adj.nnz,)
        assert adj.transpose().data.tobytes() \
            == adj.data[perm].tobytes()

    def test_permutation_is_memoized_and_shared(self):
        indptr, indices, data, shape = _random_csr_arrays(3)
        adj = KernelCSR(indptr, indices, data, shape)
        perm = adj.transpose_permutation()
        assert adj.transpose_permutation() is perm
        assert adj._transpose_perm is perm


class TestTransposeMemoization:
    def test_identity_both_directions(self):
        indptr, indices, data, shape = _random_csr_arrays(1)
        adj = KernelCSR(indptr, indices, data, shape)
        transpose = adj.transpose()
        assert adj.transpose() is transpose
        assert transpose.transpose() is adj

    def test_hit_counters(self):
        indptr, indices, data, shape = _random_csr_arrays(2)
        adj = KernelCSR(indptr, indices, data, shape)
        before = PERF.snapshot()
        adj.transpose()
        adj.transpose()
        adj.transpose()
        delta = PERF.delta(before)
        assert delta.get("kernel_transpose_misses", 0) == 1
        assert delta.get("kernel_transpose_hits", 0) == 2

    def test_repeated_backward_reuses_transpose(self):
        """Two backward passes through one memoized operator must
        materialize the transpose exactly once."""
        block = build_block(np.array([0, 1, 2]),
                            np.array([0, 1, 1, 2]),
                            np.array([5, 6, 7, 0]))
        adj = normalized_block_adjacency(block)
        before = PERF.snapshot()
        for _round in range(2):
            x = Tensor(np.ones((adj.shape[1], 2), dtype=np.float32),
                       requires_grad=True)
            gspmm(adj, x).sum().backward()
            assert x.grad is not None
        delta = PERF.delta(before)
        assert delta.get("kernel_transpose_misses", 0) == 1
        assert delta.get("kernel_transpose_hits", 0) == 1

    def test_block_cache_invalidation(self):
        """The memo is the block's: blocks are immutable, so changing
        one means building a new one, whose first use materializes a
        fresh operator and a fresh transpose."""
        block = build_block(np.array([0, 1]),
                            np.array([0, 1]),
                            np.array([3, 4]))
        first = normalized_block_adjacency(block)
        assert normalized_block_adjacency(block) is first
        first_transpose = first.transpose()

        rebuilt = normalized_block_adjacency(replace(block))
        assert rebuilt is not first
        assert rebuilt.transpose() is not first_transpose
        # Same structure, so the rebuilt operator is value-equal.
        assert np.array_equal(scipy_of(rebuilt).toarray(),
                              scipy_of(first).toarray())

    def test_direct_build_bypasses_memo(self):
        """The sort-based builder kept as the oracle never touches the
        block's slots: every call materializes a fresh, byte-equal
        operator with its own (not yet built) transpose."""
        block = build_block(np.array([0, 1]),
                            np.array([0, 1]),
                            np.array([3, 4]))
        memoized = normalized_block_adjacency(block)
        first = block_operator_reference(block)
        second = block_operator_reference(block)
        assert first is not second and first is not memoized
        assert first.data.tobytes() == memoized.data.tobytes()
        assert first.transpose() is not memoized.transpose()
        assert normalized_block_adjacency(block) is memoized
