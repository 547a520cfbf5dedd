"""Property-based tests for sampling invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import power_law_graph
from repro.sampling import HybridSampler, NeighborSampler, RateSampler


@st.composite
def sample_cases(draw):
    n = draw(st.integers(min_value=20, max_value=150))
    degree = draw(st.integers(min_value=2, max_value=10))
    fanout = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    num_seeds = draw(st.integers(min_value=1, max_value=15))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, degree, fanout, num_seeds, seed


def touched(sg):
    """Distinct global vertex ids anywhere in the sample."""
    return np.unique(np.concatenate([sg.seeds]
                                    + [b.src_nodes for b in sg.blocks]))


def build_case(n, degree, num_seeds, seed):
    rng = np.random.default_rng(seed)
    graph, _ = power_law_graph(n, degree, rng)
    seeds = rng.choice(n, size=num_seeds, replace=False)
    return graph, seeds, rng


class TestSamplerInvariants:
    @given(sample_cases())
    @settings(max_examples=40, deadline=None)
    def test_fanout_blocks_are_valid_and_bounded(self, case):
        n, degree, fanout, num_seeds, seed = case
        graph, seeds, rng = build_case(n, degree, num_seeds, seed)
        sg = NeighborSampler(fanout).sample(graph, seeds, rng)
        sg.validate()
        for layer, block in enumerate(reversed(sg.blocks)):
            assert block.degrees().max(initial=0) <= fanout[layer]

    @given(sample_cases())
    @settings(max_examples=40, deadline=None)
    def test_sampled_edges_exist_in_graph(self, case):
        n, degree, fanout, num_seeds, seed = case
        graph, seeds, rng = build_case(n, degree, num_seeds, seed)
        sg = NeighborSampler(fanout).sample(graph, seeds, rng)
        indptr, indices = graph.in_csr()
        for block in sg.blocks:
            for i, dst in enumerate(block.dst_nodes):
                row = block.indices[block.indptr[i]:block.indptr[i + 1]]
                srcs = block.src_nodes[row]
                true_neighbors = set(
                    indices[indptr[dst]:indptr[dst + 1]].tolist())
                assert set(srcs.tolist()) <= true_neighbors

    @given(sample_cases())
    @settings(max_examples=30, deadline=None)
    def test_seeds_always_covered(self, case):
        n, degree, fanout, num_seeds, seed = case
        graph, seeds, rng = build_case(n, degree, num_seeds, seed)
        sg = RateSampler(0.5, num_layers=2).sample(graph, seeds, rng)
        assert set(np.unique(seeds)) <= set(touched(sg).tolist())

    @given(sample_cases())
    @settings(max_examples=30, deadline=None)
    def test_hybrid_never_empty_counts(self, case):
        n, degree, fanout, num_seeds, seed = case
        graph, seeds, rng = build_case(n, degree, num_seeds, seed)
        sg = HybridSampler(fanout=fanout, rate=0.2,
                           degree_threshold=degree).sample(graph, seeds, rng)
        sg.validate()
        # Any destination with in-degree >= 1 sampled at least 1 neighbor.
        indptr, _ = graph.in_csr()
        for block in sg.blocks:
            degs = indptr[block.dst_nodes + 1] - indptr[block.dst_nodes]
            sampled = block.degrees()
            assert np.all(sampled[degs > 0] >= 1)
