"""The pure-numpy operator construction replicates scipy's layout.

:func:`~repro.kernels.normalized_block_adjacency` builds the operator
without a scipy product, but the *stored layout* must stay
byte-for-byte what the historical scipy construction produced
(canonical duplicate-summed CSR, rows emitted in descending column
order by scipy's ``diags @ csr`` product) — otherwise every aggregation
would drift from every pre-registry result.
"""

import numpy as np
import pytest

from repro.kernels import (as_adjacency, normalized_block_adjacency)
from repro.errors import KernelError
from repro.sampling import build_block

from .conftest import scipy_of


def _random_block(rng):
    num_dst = int(rng.integers(1, 12))
    universe = 60
    dst_nodes = rng.choice(universe, size=num_dst, replace=False)
    num_edges = int(rng.integers(0, 40))
    edge_dst = rng.choice(dst_nodes, size=num_edges)
    edge_src = rng.choice(universe, size=num_edges)
    return build_block(dst_nodes, edge_dst, edge_src)


def _scipy_construction(block, self_loops):
    """The exact pre-registry scipy construction."""
    import scipy.sparse as sp
    rows = np.repeat(np.arange(block.num_dst), block.degrees())
    cols = block.indices
    if self_loops:
        rows = np.concatenate([rows, np.arange(block.num_dst)])
        cols = np.concatenate([cols, np.arange(block.num_dst)])
    data = np.ones(len(rows), dtype=np.float32)
    matrix = sp.csr_matrix((data, (rows, cols)),
                           shape=(block.num_dst, block.num_src))
    degree = np.asarray(matrix.sum(axis=1)).ravel()
    degree[degree == 0] = 1.0
    scale = sp.diags((1.0 / degree).astype(np.float32))
    return (scale @ matrix).tocsr()


@pytest.mark.parametrize("self_loops", [True, False])
def test_layout_matches_scipy_construction(self_loops):
    rng = np.random.default_rng(0)
    for _trial in range(40):
        block = _random_block(rng)
        ours = normalized_block_adjacency(block, self_loops=self_loops)
        theirs = _scipy_construction(block, self_loops)
        assert ours.indptr.tobytes() \
            == theirs.indptr.astype(np.int64).tobytes()
        assert ours.indices.tobytes() \
            == theirs.indices.astype(np.int64).tobytes()
        assert ours.data.tobytes() == theirs.data.tobytes()


@pytest.mark.parametrize("self_loops", [True, False])
def test_rows_sum_to_one(self_loops):
    rng = np.random.default_rng(1)
    for _trial in range(10):
        block = _random_block(rng)
        operator = normalized_block_adjacency(block,
                                              self_loops=self_loops)
        sums = operator.sum(axis=1)
        populated = operator.row_degrees() > 0
        assert np.allclose(sums[populated], 1.0)
        assert np.all(sums[~populated] == 0.0)


def test_duplicate_self_loop_collapses():
    """A destination that sampled itself gets one stored (i, i) entry
    of weight 2/degree, not two entries."""
    block = build_block(np.array([4]), np.array([4, 4]),
                        np.array([4, 9]))
    operator = normalized_block_adjacency(block, self_loops=True)
    assert operator.nnz == 2
    dense = scipy_of(operator).toarray()
    # Three incidences (edge to self, edge to 9, appended loop), so the
    # self entry carries 2/3 and the neighbor 1/3.
    assert np.allclose(dense[0, 0], 2.0 / 3.0)
    assert np.allclose(sorted(operator.data), [1.0 / 3.0, 2.0 / 3.0])


def test_as_adjacency_wraps_and_caches_scipy():
    import scipy.sparse as sp
    matrix = sp.csr_matrix(
        (np.array([1.0, 2.0], dtype=np.float32),
         np.array([0, 1]), np.array([0, 1, 2])), shape=(2, 2))
    wrapped = as_adjacency(matrix)
    assert as_adjacency(matrix) is wrapped
    assert np.array_equal(scipy_of(wrapped).toarray(), matrix.toarray())


def test_as_adjacency_rejects_foreign_objects():
    with pytest.raises(KernelError, match="cannot interpret"):
        as_adjacency(object())
