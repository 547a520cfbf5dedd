"""Property-based tests (hypothesis) for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edges, split_vertices


@st.composite
def edge_lists(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


class TestCSRInvariants:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_indptr_consistent(self, case):
        n, src, dst = case
        g = from_edges(src, dst, n)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.num_edges
        assert np.all(np.diff(g.indptr) >= 0)
        assert g.out_degrees.sum() == g.num_edges

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_no_self_loops_no_duplicates(self, case):
        n, src, dst = case
        g = from_edges(src, dst, n)
        s, d = g.edges()
        assert not np.any(s == d)
        pairs = set(zip(s.tolist(), d.tolist()))
        assert len(pairs) == g.num_edges

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_symmetrize_produces_symmetric_adjacency(self, case):
        n, src, dst = case
        g = from_edges(src, dst, n, symmetrize_edges=True)
        s, d = g.edges()
        pairs = set(zip(s.tolist(), d.tolist()))
        assert all((b, a) in pairs for a, b in pairs)

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_in_degrees_sum_matches(self, case):
        n, src, dst = case
        g = from_edges(src, dst, n)
        assert g.reverse().out_degrees.sum() == g.num_edges
        # transpose twice = identity
        assert g.reverse().reverse() == g


class TestSplitInvariants:
    @given(st.integers(3, 5000), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_masks_partition_vertices(self, n, seed):
        split = split_vertices(n, np.random.default_rng(seed))
        split.validate()
        assert (len(split.train_ids) + len(split.val_ids)
                + len(split.test_ids)) == n
