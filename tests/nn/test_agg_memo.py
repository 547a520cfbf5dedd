"""Memoization of the per-block views (aggregation operators, GAT
edge list) the kernels layer reads off a block and stores on it."""

from dataclasses import replace

import numpy as np

from repro.graph.build import from_edges
from repro.kernels import (adjacency, block_attention_edges,
                           normalized_block_adjacency)
from repro.nn import build_model, no_grad
from repro.sampling import NeighborSampler, build_block

from ..kernels._operator_oracle import block_operator_reference
from ..sampling._block_oracle import slow_paths


mean_operator = adjacency._mean_operator


def small_block():
    return build_block([0, 1], [0, 0, 1], [1, 2, 3])


class TestAggregationMemo:
    def test_repeated_calls_return_same_object(self):
        block = small_block()
        first = normalized_block_adjacency(block, self_loops=True)
        second = normalized_block_adjacency(block, self_loops=True)
        assert first is second

    def test_keyed_by_self_loops(self):
        block = small_block()
        with_loops = normalized_block_adjacency(block, self_loops=True)
        without = normalized_block_adjacency(block, self_loops=False)
        assert with_loops is not without
        assert normalized_block_adjacency(block, self_loops=False) is without

    def test_hit_and_miss_counters(self, monkeypatch):
        """One build (the miss), then two hits that hand back the built
        operator itself."""
        built = []

        def build(*args):
            built.append(mean_operator(*args))
            return built[-1]

        monkeypatch.setattr(adjacency, "_mean_operator", build)
        block = small_block()
        calls = [normalized_block_adjacency(block) for _ in range(3)]
        assert len(built) == 1
        assert all(matrix is built[0] for matrix in calls)

    def test_memoized_matrix_matches_fresh_build(self):
        block = small_block()
        memoized = normalized_block_adjacency(block, self_loops=True)
        fresh = block_operator_reference(block, self_loops=True)
        assert memoized is not fresh
        for name in ("indptr", "indices", "data"):
            assert getattr(memoized, name).tobytes() \
                == getattr(fresh, name).tobytes(), name
        # Rows are mean-normalized either way.
        assert np.allclose(memoized.sum(axis=1), 1.0)

    def test_memo_lives_on_the_block(self):
        """Two structurally equal blocks never share an operator."""
        first = normalized_block_adjacency(small_block())
        second = normalized_block_adjacency(small_block())
        assert first is not second


class TestGATEdgeMemo:
    def test_edge_lists_memoized(self):
        """One edge list (and so one pair of segment views) per block;
        a rebuilt block starts with empty slots."""
        block = small_block()
        first = block_attention_edges(block)
        second = block_attention_edges(block)
        assert first is second
        fresh = block_attention_edges(replace(block))
        assert fresh is not first
        assert np.array_equal(first.edge_dst, fresh.edge_dst)
        assert np.array_equal(first.edge_src, fresh.edge_src)


class TestForwardEquivalence:
    def test_model_outputs_identical_with_and_without_memo(self):
        """GCN/SAGE/GAT forward over the same subgraph is bit-identical
        with the memoized operators and with operators rebuilt on every
        call (same math, cached operator)."""
        rng = np.random.default_rng(0)
        count = 2000
        graph = from_edges(rng.integers(0, 300, count),
                           rng.integers(0, 300, count), 300)
        sampler = NeighborSampler((4, 4))
        subgraph = sampler.sample(graph, np.arange(32),
                                  np.random.default_rng(5))
        features = rng.standard_normal(
            (subgraph.blocks[0].num_src, 16)).astype(np.float32)
        for name in ("gcn", "graphsage", "gat"):
            model = build_model(name, 16, 4, num_layers=2, hidden_dim=8,
                                rng=np.random.default_rng(1), dropout=0.0)
            with no_grad():
                memoized = model.forward(subgraph, features).data
                # Second call hits every cache; still identical.
                again = model.forward(subgraph, features).data
                with slow_paths():
                    fresh = model.forward(subgraph, features).data
            assert np.array_equal(memoized, again), name
            assert np.array_equal(memoized, fresh), name
