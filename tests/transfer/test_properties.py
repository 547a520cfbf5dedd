"""Property-based tests for the transfer subsystem."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import power_law_graph
from repro.transfer import (DEFAULT_SPEC, TieredCache, block_activity,
                            make_tiered_cache, simulate_pipeline,
                            threshold_sweep)


@st.composite
def stage_time_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    rows = draw(st.lists(
        st.tuples(st.floats(0, 10, allow_nan=False),
                  st.floats(0, 10, allow_nan=False),
                  st.floats(0, 10, allow_nan=False)),
        min_size=n, max_size=n))
    return np.array(rows)


class TestPipelineProperties:
    @given(stage_time_matrices())
    @settings(max_examples=60, deadline=None)
    def test_mode_ordering(self, times):
        none = simulate_pipeline(times, "none").makespan
        bp = simulate_pipeline(times, "bp").makespan
        full = simulate_pipeline(times, "bp+dt").makespan
        assert full <= bp + 1e-9
        assert bp <= none + 1e-9

    @given(stage_time_matrices())
    @settings(max_examples=60, deadline=None)
    def test_makespan_bounds(self, times):
        """Pipelined time is at least the bottleneck stage and at least
        any single batch's critical path."""
        result = simulate_pipeline(times, "bp+dt")
        assert result.makespan >= times.sum(axis=0).max() - 1e-9
        assert result.makespan >= times.sum(axis=1).max() - 1e-9
        assert result.makespan <= times.sum() + 1e-9

    @given(stage_time_matrices(), st.floats(1.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_times_scales_makespan(self, times, factor):
        base = simulate_pipeline(times, "bp+dt").makespan
        scaled = simulate_pipeline(times * factor, "bp+dt").makespan
        assert np.isclose(scaled, base * factor, rtol=1e-9, atol=1e-9)


class TestCacheProperties:
    @given(st.integers(10, 300), st.integers(0, 2**31 - 1),
           st.integers(1, 500))
    @settings(max_examples=40, deadline=None)
    def test_hits_plus_misses_equals_lookups(self, n, seed, requests):
        rng = np.random.default_rng(seed)
        cache = TieredCache(n, n // 3, 0, policy="static",
                            scores=rng.random(n), backing="host")
        queries = rng.integers(0, n, size=requests)
        lookup = cache.lookup(queries)
        assert len(lookup.hot_ids) + len(lookup.misses) == requests
        assert cache.hot_hits + cache.cold_misses == requests

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bigger_degree_cache_is_superset(self, seed):
        graph, _ = power_law_graph(150, 6, np.random.default_rng(seed))
        small = make_tiered_cache("degree", graph, 0.2, 0.0)
        large = make_tiered_cache("degree", graph, 0.5, 0.0)
        everything = np.arange(graph.num_vertices)
        assert np.all(large.lookup(everything).hot_mask
                      >= small.lookup(everything).hot_mask)


class TestBlockActivityProperties:
    @given(st.integers(16, 500), st.integers(0, 2**31 - 1),
           st.integers(4, 64))
    @settings(max_examples=40, deadline=None)
    def test_counts_sum_to_unique_active(self, n, seed, feat_bytes):
        rng = np.random.default_rng(seed)
        active = rng.integers(0, n, size=min(n, 60))
        activity = block_activity(active, n, feat_bytes, block_bytes=256)
        assert activity.active_counts.sum() == len(np.unique(active))

    @given(st.integers(16, 500), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_threshold_sweep_monotone(self, n, seed):
        rng = np.random.default_rng(seed)
        active = rng.integers(0, n, size=n // 2)
        activity = block_activity(active, n, 64)
        values = list(threshold_sweep(activity).values())
        assert all(a >= b for a, b in zip(values, values[1:]))
