"""Unit tests for the multi-tier feature cache and its cost model.

Covers the ISSUE's invariants: no row resident in two tiers, per-tier
capacities respected under arbitrary lookup sequences, bit-identical
hit/miss sequences under a fixed seed, zero-cost pass-through when
disabled — plus the new :class:`HardwareSpec` storage constants and the
tier-by-tier transfer-method billing.
"""

import numpy as np
import pytest

from repro.errors import TransferError
from repro.graph import power_law_graph
from repro.sampling import NeighborSampler
from repro.transfer import (DEFAULT_SPEC, BatchStats, ExtractLoad,
                            HardwareSpec, HybridTransfer, TieredCache,
                            TierLookup, ZeroCopy, make_tiered_cache,
                            select_lowest)

TIER_POLICIES_DYNAMIC = ("lru", "lfu")


@pytest.fixture(scope="module")
def graph():
    g, _comm = power_law_graph(400, 8, np.random.default_rng(0))
    return g


def zipf_stream(num_vertices, batches, size, seed, skew=1.0):
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** -skew
    weights /= weights.sum()
    population = rng.permutation(num_vertices)
    return [rng.choice(population, size=size, p=weights)
            for _ in range(batches)]


class TestHardwareSpecStorage:
    def test_new_constants_have_defaults(self):
        spec = HardwareSpec()
        assert spec.host_cache_bandwidth > spec.pcie_bandwidth
        assert spec.disk_bandwidth < spec.pcie_bandwidth
        assert spec.disk_latency > 0

    @pytest.mark.parametrize("field", ["host_cache_bandwidth",
                                       "disk_bandwidth"])
    def test_rejects_nonpositive_bandwidth(self, field):
        with pytest.raises(TransferError):
            HardwareSpec(**{field: 0.0})

    def test_rejects_negative_disk_latency(self):
        with pytest.raises(TransferError):
            HardwareSpec(disk_latency=-1e-6)

    def test_disk_time_charges_latency_per_read(self):
        spec = HardwareSpec()
        one = spec.disk_time(1000)
        assert one == pytest.approx(1000 / spec.disk_bandwidth
                                    + spec.disk_latency)
        assert spec.disk_time(1000, reads=3) == pytest.approx(
            1000 / spec.disk_bandwidth + 3 * spec.disk_latency)
        assert spec.disk_time(0) == 0.0

    def test_host_cache_faster_than_gather(self):
        spec = HardwareSpec()
        assert spec.host_cache_time(1 << 20) < spec.gather_time(1 << 20)


class TestSelectLowest:
    def test_picks_lowest_scores(self):
        ids = np.array([10, 20, 30, 40])
        scores = np.array([3, 1, 2, 4])
        assert sorted(select_lowest(ids, scores, 2)) == [20, 30]

    def test_ties_break_toward_lower_ids(self):
        ids = np.array([7, 3, 5, 1])
        scores = np.array([2, 2, 2, 2])
        assert sorted(select_lowest(ids, scores, 2)) == [1, 3]

    def test_degenerate_k(self):
        ids = np.array([1, 2, 3])
        scores = np.array([1, 2, 3])
        assert len(select_lowest(ids, scores, 0)) == 0
        assert len(select_lowest(ids, scores, 5)) == 3


class TestTierInvariants:
    @pytest.mark.parametrize("policy", TIER_POLICIES_DYNAMIC)
    def test_no_dual_residency_and_capacity(self, policy):
        cache = TieredCache(300, hot_capacity=20, warm_capacity=40,
                            policy=policy)
        for batch in zipf_stream(300, batches=30, size=64, seed=1):
            cache.lookup(batch)
            live = cache.residency()
            assert live["hot"] <= 20 and live["warm"] <= 40
            # _tier holds one code per row, so dual residency is
            # impossible by construction; check the id lists agree.
            assert live["hot"] == len(cache._hot_ids)
            assert live["warm"] == len(cache._warm_ids)
            assert not np.intersect1d(cache._hot_ids,
                                      cache._warm_ids).size

    @pytest.mark.parametrize("policy", ["degree", "presample"])
    def test_static_policies_fixed_residency(self, graph, policy):
        sampler = NeighborSampler((4,))
        cache = make_tiered_cache(
            policy, graph, 0.1, 0.2, sampler=sampler,
            seeds=np.arange(50), rng=np.random.default_rng(0))
        before = (cache._hot_ids.copy(), cache._warm_ids.copy())
        for batch in zipf_stream(graph.num_vertices, 10, 64, seed=2):
            cache.lookup(batch)
        assert np.array_equal(before[0], cache._hot_ids)
        assert np.array_equal(before[1], cache._warm_ids)
        live = cache.residency()
        assert live["hot"] <= int(round(0.1 * graph.num_vertices))
        assert live["warm"] <= int(round(0.2 * graph.num_vertices))

    @pytest.mark.parametrize("policy", TIER_POLICIES_DYNAMIC)
    def test_bit_identical_sequences_under_fixed_seed(self, policy):
        def run():
            cache = TieredCache(250, 15, 30, policy=policy)
            trail = []
            for batch in zipf_stream(250, 20, 48, seed=3):
                lookup = cache.lookup(batch)
                trail.append((lookup.hot_mask.copy(),
                              lookup.warm_mask.copy()))
            return cache, trail

        cache_a, trail_a = run()
        cache_b, trail_b = run()
        for (hot_a, warm_a), (hot_b, warm_b) in zip(trail_a, trail_b):
            assert np.array_equal(hot_a, hot_b)
            assert np.array_equal(warm_a, warm_b)
        assert np.array_equal(cache_a._tier, cache_b._tier)
        assert (cache_a.hot_hit_rate, cache_a.warm_hit_rate,
                cache_a.cold_misses) == (cache_b.hot_hit_rate,
                                         cache_b.warm_hit_rate,
                                         cache_b.cold_misses)

    def test_disabled_cache_is_zero_cost_pass_through(self):
        cache = TieredCache(100, 0, 0, policy="lru")
        assert not cache.enabled
        lookup = cache.lookup(np.array([1, 2, 3, 2]))
        assert lookup.num_hot == 0 and lookup.num_warm == 0
        assert lookup.num_cold == 4
        assert cache._tier is None          # no bookkeeping at all
        bill = cache.bill(lookup, row_bytes=16, spec=DEFAULT_SPEC)
        assert bill.hot_seconds == 0.0 and bill.warm_seconds == 0.0
        assert bill.cold_seconds > 0.0

    def test_warm_only_configuration(self):
        cache = TieredCache(100, 0, 10, policy="lfu")
        for batch in zipf_stream(100, 15, 32, seed=4):
            cache.lookup(batch)
            live = cache.residency()
            assert live["hot"] == 0 and live["warm"] <= 10

    def test_duplicates_counted_per_request(self):
        cache = TieredCache(50, 5, 5, policy="lru")
        cache.lookup(np.array([1, 1, 2]))
        cache.lookup(np.array([1, 1, 2]))
        assert cache.hot_hits == 3          # second call: all resident
        assert cache.requests == 6


class TestTieredBilling:
    def _lookup(self, cache, vertices):
        return cache.lookup(np.asarray(vertices, dtype=np.int64))

    def test_bill_totals_and_shares(self):
        cache = TieredCache(100, 10, 10, policy="lfu")
        vertices = np.arange(30)
        cache.lookup(vertices)              # warm the tiers
        bill = cache.bill(self._lookup(cache, vertices), 64,
                          DEFAULT_SPEC)
        assert bill.total_seconds == pytest.approx(
            bill.hot_seconds + bill.warm_seconds + bill.cold_seconds)
        assert set(bill.tier_seconds()) == {"hot", "warm", "cold"}

    def test_cold_rows_cost_more_than_warm(self):
        spec = DEFAULT_SPEC
        warm = TierLookup(np.arange(10), np.ones(10, np.int8), 0, 10, 0)
        cold = TierLookup(np.arange(10), np.zeros(10, np.int8), 0, 0, 10)
        cache = TieredCache(100, 10, 10, policy="lfu")
        assert cache.bill(cold, 256, spec).total_seconds \
            > cache.bill(warm, 256, spec).total_seconds

    @pytest.mark.parametrize("method", [ExtractLoad(), ZeroCopy(),
                                        HybridTransfer()])
    def test_methods_bill_tier_by_tier(self, method):
        cache = TieredCache(500, 50, 100, policy="lfu")
        cache.lookup(np.arange(120))        # populate hot + warm
        stats = BatchStats(input_nodes=np.arange(200),
                           feature_bytes_per_vertex=64,
                           subgraph_edges=400, num_vertices_total=500)
        breakdown = method.transfer(stats, DEFAULT_SPEC, cache=cache)
        assert breakdown.disk_seconds > 0.0
        assert set(breakdown.tier_seconds) == {"hot", "warm", "cold"}
        assert breakdown.total_seconds == pytest.approx(
            breakdown.extract_seconds + breakdown.load_seconds
            + breakdown.disk_seconds)
        assert sum(breakdown.tier_bytes.values()) \
            <= stats.feature_bytes

    def test_fetch_seconds_accumulates_stats(self):
        cache = TieredCache(100, 10, 10, policy="lru")
        seconds, bill = cache.fetch_seconds(np.arange(25), 32,
                                            DEFAULT_SPEC)
        assert seconds == pytest.approx(bill.total_seconds)
        assert cache.requests == 25


class TestFactoryValidation:
    def test_rejects_unknown_policy(self, graph):
        with pytest.raises(TransferError):
            make_tiered_cache("fifo", graph, 0.1, 0.1)

    def test_rejects_out_of_range_ratios(self, graph):
        with pytest.raises(TransferError):
            make_tiered_cache("lru", graph, -0.1, 0.1)
        with pytest.raises(TransferError):
            make_tiered_cache("lru", graph, 0.7, 0.7)

    def test_degree_needs_a_graph(self):
        with pytest.raises(TransferError):
            make_tiered_cache("degree", 100, 0.1, 0.1)

    def test_presample_needs_sampler_or_scores(self, graph):
        with pytest.raises(TransferError):
            make_tiered_cache("presample", graph, 0.1, 0.1)
        cache = make_tiered_cache("presample", graph, 0.1, 0.1,
                                  scores=np.arange(graph.num_vertices,
                                                   dtype=float))
        assert cache.residency()["hot"] > 0

    def test_static_needs_scores(self):
        with pytest.raises(TransferError):
            make_tiered_cache("static", 100, 0.1, 0.1)

    def test_capacity_exceeding_universe_rejected(self):
        with pytest.raises(TransferError):
            TieredCache(10, 8, 8, policy="lru")

    def test_score_shape_validated(self):
        with pytest.raises(TransferError):
            TieredCache(10, 2, 2, policy="static",
                        scores=np.arange(5, dtype=float))


class TestVectorizedFlatLRU:
    """The single-GPU-tier LRU (``warm_capacity == 0``); its hit, miss
    and resident sets are pinned against the old flat class in
    ``test_cache_oracle.py``."""

    def test_resident_bookkeeping_consistent(self):
        cache = TieredCache(300, 30, 0, policy="lru", backing="host")
        for batch in zipf_stream(300, 30, 64, seed=6):
            cache.lookup(batch)
            assert cache.residency() == {"hot": len(cache._hot_ids),
                                         "warm": 0}
            assert len(np.unique(cache._hot_ids)) == len(cache._hot_ids)
            assert len(cache._hot_ids) <= cache.hot_capacity

    def test_evicts_least_recently_used_still(self):
        cache = TieredCache(100, 3, 0, policy="lru", backing="host")
        cache.lookup([1, 2, 3])
        cache.lookup([1])                   # 2 is now the LRU row
        cache.lookup([4])                   # evicts 2
        assert cache.lookup([1, 3, 4]).num_hot == 3
        assert cache.lookup([2]).num_cold == 1

    def test_batch_overfilling_the_tier_keeps_its_lowest_ids(self):
        """The LRU overflow rule; lfu sheds by ``(score, id)``."""
        lru = TieredCache(100, 3, 2, policy="lru")
        lru.lookup([9, 7, 5, 3, 1, 8])
        assert sorted(lru._hot_ids) == [1, 3, 5]
        assert sorted(lru._warm_ids) == [7, 8]
        lfu = TieredCache(100, 3, 2, policy="lfu")
        lfu.lookup([9, 7, 5, 3, 1, 8])
        assert sorted(lfu._hot_ids) == [7, 8, 9]
        assert sorted(lfu._warm_ids) == [3, 5]
