"""Unit tests for GPU caching, block activity, and pipelining."""

import numpy as np
import pytest

from repro.errors import TrainingError, TransferError
from repro.graph import load_dataset
from repro.sampling import NeighborSampler
from repro.core.config import make_cache
from repro.transfer import (TieredCache, active_block_ratio,
                            block_activity, pipeline_groups,
                            presample_frequencies, simulate_pipeline,
                            threshold_sweep)


@pytest.fixture(scope="module")
def skewed():
    return load_dataset("amazon", scale=0.4)


@pytest.fixture(scope="module")
def flat():
    return load_dataset("ogb-papers", scale=0.4)


def pinned(cached_ids, num_vertices):
    """A single-GPU-tier cache over exactly ``cached_ids``."""
    scores = np.zeros(num_vertices)
    scores[cached_ids] = 1.0
    return TieredCache(num_vertices, len(cached_ids), 0, policy="static",
                       scores=scores, backing="host")


class TestGPUCache:
    """The paper's §7.3.3 cache: one GPU tier over host-resident
    features, as ``make_cache`` builds it for ``warm_ratio == 0``."""

    def test_lookup_splits_and_counts(self):
        cache = pinned([0, 2], num_vertices=4)
        lookup = cache.lookup([0, 1, 2, 3, 0])
        assert list(lookup.hot_ids) == [0, 2, 0]
        assert list(lookup.misses) == [1, 3]
        assert cache.hot_hits == 3 and cache.cold_misses == 2
        assert cache.hit_rate == pytest.approx(0.6)

    def test_out_of_range_rejected(self):
        with pytest.raises(TransferError):
            TieredCache(4, 5, 0, policy="static", scores=np.zeros(4))
        with pytest.raises(TransferError):
            TieredCache(4, 1, 0, policy="static", scores=np.zeros(9))
        with pytest.raises(TransferError):
            TieredCache(4, 1, 0, policy="lru", backing="tape")

    def test_reset_stats(self):
        cache = pinned([0], num_vertices=2)
        cache.lookup([0, 1])
        cache.reset_stats()
        assert cache.hot_hits == 0 and cache.cold_misses == 0

    def test_degree_cache_prefers_hubs(self, skewed):
        cache = make_cache("degree", skewed, 0.1)
        degrees = skewed.graph.out_degrees
        cached_ids = cache.lookup(np.arange(skewed.num_vertices)).hot_ids
        uncached_ids = np.setdiff1d(np.arange(skewed.num_vertices),
                                    cached_ids)
        assert degrees[cached_ids].min() >= degrees[uncached_ids].max()

    def test_capacity_from_ratio(self, skewed):
        cache = make_cache("degree", skewed, 0.25)
        assert cache.hot_capacity == round(0.25 * skewed.num_vertices)
        assert cache.warm_capacity == 0
        assert cache.residency() == {"hot": cache.hot_capacity, "warm": 0}
        assert cache.backing == "host"

    def test_invalid_ratio(self, skewed):
        with pytest.raises(TrainingError):
            make_cache("degree", skewed, 1.5)

    def test_zero_ratio_cache_never_hits(self, skewed):
        assert make_cache("degree", skewed, 0.0) is None
        cache = TieredCache(skewed.num_vertices, 0, 0, backing="host")
        lookup = cache.lookup([0, 1, 2])
        assert len(lookup.hot_ids) == 0 and len(lookup.misses) == 3

    def test_presample_frequencies_cover_train_vertices(self, skewed):
        sampler = NeighborSampler((5, 5))
        freq = presample_frequencies(
            skewed.graph, sampler, skewed.train_ids,
            np.random.default_rng(0), epochs=1)
        # Every training vertex is its own batch seed at least once.
        assert np.all(freq[skewed.train_ids] >= 1)

    def test_presample_beats_degree_on_flat_graph(self, flat):
        """§7.3.3's headline: on non-power-law graphs the degree
        heuristic stops predicting access frequency; pre-sampling keeps
        working.  The access skew comes from a small hot seed set — the
        working-set regime of OGB-Papers, where the graph dwarfs what one
        epoch touches."""
        sampler = NeighborSampler((10, 5))
        seeds = flat.train_ids[:max(16, int(0.02 * flat.num_vertices))]
        degree = make_cache("degree", flat, 0.2)
        presample = make_cache("presample", flat, 0.2, sampler=sampler,
                               seeds=seeds, rng=np.random.default_rng(1))
        eval_rng = np.random.default_rng(2)
        for _round in range(4):
            batch = eval_rng.permutation(seeds)[:400]
            subgraph = sampler.sample(flat.graph, batch, eval_rng)
            degree.lookup(subgraph.input_nodes)
            presample.lookup(subgraph.input_nodes)
        assert presample.hit_rate > degree.hit_rate + 0.05

    def test_policies_comparable_on_power_law(self, skewed):
        """On power-law graphs both policies find the hubs."""
        sampler = NeighborSampler((10, 5))
        degree = make_cache("degree", skewed, 0.2)
        presample = make_cache("presample", skewed, 0.2, sampler=sampler,
                               seeds=skewed.train_ids,
                               rng=np.random.default_rng(1))
        eval_rng = np.random.default_rng(2)
        batch = eval_rng.permutation(skewed.train_ids)[:500]
        subgraph = sampler.sample(skewed.graph, batch, eval_rng)
        degree.lookup(subgraph.input_nodes)
        presample.lookup(subgraph.input_nodes)
        assert abs(presample.hit_rate - degree.hit_rate) < 0.2

    def test_random_cache_hit_rate_tracks_ratio(self, skewed):
        cache = make_cache("random", skewed, 0.3,
                           rng=np.random.default_rng(0))
        assert cache.residency()["hot"] == round(
            0.3 * skewed.num_vertices)
        rng = np.random.default_rng(1)
        cache.lookup(rng.integers(0, skewed.num_vertices, size=5000))
        assert abs(cache.hit_rate - 0.3) < 0.05
        with pytest.raises(TrainingError):
            make_cache("random", skewed, 0.3, warm_ratio=0.1)


class TestBlockActivity:
    def test_counts_per_block(self):
        # 10 vertices, 4-byte rows, 16-byte blocks -> 4 vertices/block.
        activity = block_activity([0, 1, 4, 9], num_vertices=10,
                                  feature_bytes_per_vertex=4,
                                  block_bytes=16)
        assert activity.vertices_per_block == 4
        assert list(activity.active_counts) == [2, 1, 1]

    def test_fractions(self):
        activity = block_activity([0, 1, 2, 3], num_vertices=8,
                                  feature_bytes_per_vertex=4,
                                  block_bytes=16)
        assert activity.fractions[0] == 1.0
        assert activity.fractions[1] == 0.0

    def test_duplicates_collapsed(self):
        activity = block_activity([0, 0, 0], num_vertices=4,
                                  feature_bytes_per_vertex=4,
                                  block_bytes=16)
        assert activity.active_counts[0] == 1

    def test_out_of_range(self):
        with pytest.raises(TransferError):
            block_activity([99], num_vertices=10,
                           feature_bytes_per_vertex=4)

    def test_active_block_ratio(self):
        activity = block_activity([0, 1, 2, 3, 4], num_vertices=16,
                                  feature_bytes_per_vertex=4,
                                  block_bytes=16)
        # Block 0 full, block 1 quarter-full, blocks 2-3 empty.
        assert active_block_ratio(activity, 0.5) == pytest.approx(0.25)
        assert active_block_ratio(activity, 0.2) == pytest.approx(0.5)

    def test_threshold_sweep_monotone(self):
        rng = np.random.default_rng(0)
        activity = block_activity(rng.choice(4096, 1000, replace=False),
                                  num_vertices=4096,
                                  feature_bytes_per_vertex=64)
        sweep = threshold_sweep(activity)
        values = list(sweep.values())
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestPipeline:
    def test_no_pipe_is_sum(self):
        times = [(1.0, 2.0, 3.0)] * 4
        result = simulate_pipeline(times, mode="none")
        assert result.makespan == pytest.approx(24.0)

    def test_full_pipeline_bounded_by_bottleneck(self):
        times = [(1.0, 2.0, 3.0)] * 10
        result = simulate_pipeline(times, mode="bp+dt")
        # Steady state: bottleneck stage (3s) dominates; startup adds the
        # other stages once.
        assert result.makespan == pytest.approx(3.0 + 10 * 3.0, abs=1e-9)

    def test_pipeline_never_slower_than_sequential(self):
        rng = np.random.default_rng(0)
        times = rng.random((20, 3))
        sequential = simulate_pipeline(times, "none").makespan
        bp = simulate_pipeline(times, "bp").makespan
        full = simulate_pipeline(times, "bp+dt").makespan
        assert full <= bp <= sequential

    def test_pipeline_never_faster_than_bottleneck(self):
        rng = np.random.default_rng(1)
        times = rng.random((20, 3))
        full = simulate_pipeline(times, "bp+dt")
        assert full.makespan >= times.sum(axis=0).max()

    def test_empty_batches(self):
        result = simulate_pipeline(np.zeros((0, 3)), "bp+dt")
        assert result.makespan == 0.0

    def test_invalid_mode(self):
        with pytest.raises(TransferError):
            simulate_pipeline([(1, 1, 1)], mode="warp")

    def test_invalid_shape(self):
        with pytest.raises(TransferError):
            simulate_pipeline([(1.0, 2.0)], mode="none")

    def test_negative_times_rejected(self):
        with pytest.raises(TransferError):
            simulate_pipeline([(1.0, -2.0, 3.0)], mode="none")

    def test_groups(self):
        assert pipeline_groups("none") == [[0, 1, 2]]
        assert pipeline_groups("bp") == [[0], [1, 2]]
        assert pipeline_groups("bp+dt") == [[0], [1], [2]]

    def test_utilization_of_saturated_pipeline(self):
        times = [(1.0, 5.0, 1.0)] * 50
        result = simulate_pipeline(times, "bp+dt")
        assert result.stage_busy.max() / result.makespan > 0.95
        assert int(np.argmax(result.stage_busy)) == 1
