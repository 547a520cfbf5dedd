"""Differential test: the one cache against the flat family it absorbed.

``_flat_cache_oracle.py`` holds the old ``GPUCache`` classes.  A
host-backed :class:`TieredCache` with no warm tier — what ``make_cache``
builds for ``warm_ratio == 0`` — must split every lookup of a generated
stream into the same hit ids and miss ids and hold the same resident
set afterwards, for the dynamic ``lru`` (including batches up to 3x the
capacity, where the LRU overflow rule decides who stays) and for the
static ``degree`` / ``presample`` / ``random`` placements.  Then the
properties every ``(policy, hot, warm, backing)`` must keep, and the
host-backed bills against the flat formulas they replaced.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import make_cache
from repro.graph import power_law_graph
from repro.sampling import NeighborSampler
from repro.transfer import (DEFAULT_SPEC, BACKING_STORES, BatchStats,
                            ExtractLoad, HybridTransfer, TieredCache,
                            ZeroCopy)

from . import _flat_cache_oracle as oracle

SPEC = DEFAULT_SPEC


@st.composite
def lookup_streams(draw, num_vertices, capacity):
    """Batches of up to 3x ``capacity`` rows (at least 1..8), uniform or
    Zipf over a permuted universe."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    skew = draw(st.sampled_from([0.0, 0.8, 1.5]))
    weights = np.arange(1, num_vertices + 1, dtype=np.float64) ** -skew
    weights /= weights.sum()
    population = rng.permutation(num_vertices)
    sizes = draw(st.lists(st.integers(0, max(8, 3 * capacity)),
                          min_size=1, max_size=12))
    return [rng.choice(population, size=size, p=weights)
            for size in sizes]


def _assert_same_stream(flat, cache, stream):
    assert cache.backing == "host" and cache.warm_capacity == 0
    for batch in stream:
        hits, misses = flat.lookup(batch)
        lookup = cache.lookup(batch)
        np.testing.assert_array_equal(lookup.hot_ids, hits)
        np.testing.assert_array_equal(lookup.misses, misses)
        np.testing.assert_array_equal(lookup.vertices[lookup.cold_mask],
                                      misses)
        resident = np.sort(cache._hot_ids) if cache.enabled \
            else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(resident, flat.resident_ids())
    assert (cache.hot_hits, cache.cold_misses) == (flat.hits,
                                                   flat.misses)


def _dataset(num_vertices, seed):
    graph, _communities = power_law_graph(
        num_vertices, 4, np.random.default_rng(seed))
    return SimpleNamespace(graph=graph, num_vertices=graph.num_vertices)


class TestFlatOracle:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), num_vertices=st.integers(4, 160),
           fraction=st.floats(0.0, 1.0))
    def test_lru_matches_flat_lru(self, data, num_vertices, fraction):
        ratio = round(fraction, 3)
        flat = oracle.LRUCache(num_vertices, ratio)
        cache = make_cache("lru", _dataset(num_vertices, 0), ratio) \
            or TieredCache(num_vertices, 0, 0, backing="host")
        stream = data.draw(lookup_streams(num_vertices, flat.capacity))
        _assert_same_stream(flat, cache, stream)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), num_vertices=st.integers(8, 120),
           fraction=st.floats(0.01, 1.0), seed=st.integers(0, 50),
           policy=st.sampled_from(["degree", "presample", "random"]))
    def test_static_placements_match_flat(self, data, num_vertices,
                                          fraction, seed, policy):
        ratio = round(fraction, 3)
        dataset = _dataset(num_vertices, seed)
        sampler = NeighborSampler((3, 2))
        seeds = np.arange(0, num_vertices, 3)
        flat = {
            "degree": lambda: oracle.DegreeCache(dataset.graph, ratio),
            "presample": lambda: oracle.PreSampleCache(
                dataset.graph, sampler, seeds, ratio,
                rng=np.random.default_rng(seed)),
            "random": lambda: oracle.RandomCache(
                dataset.graph, ratio, np.random.default_rng(seed)),
        }[policy]()
        cache = make_cache(policy, dataset, ratio, sampler=sampler,
                           seeds=seeds, rng=np.random.default_rng(seed))
        stream = data.draw(lookup_streams(num_vertices, flat.capacity))
        _assert_same_stream(flat, cache, stream)


@st.composite
def caches(draw):
    num_vertices = draw(st.integers(1, 120))
    hot = draw(st.integers(0, num_vertices))
    warm = draw(st.integers(0, num_vertices - hot))
    policy = draw(st.sampled_from(["lru", "lfu", "degree", "static"]))
    scores = None
    if policy in ("degree", "static"):
        scores = np.random.default_rng(
            draw(st.integers(0, 99))).integers(0, 5, num_vertices)
    return TieredCache(num_vertices, hot, warm, policy=policy,
                       scores=scores,
                       backing=draw(st.sampled_from(BACKING_STORES)))


class TestCacheProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), cache=caches(),
           row_bytes=st.sampled_from([4, 100, 516]))
    def test_residency_conservation_and_host_bill(self, data, cache,
                                                  row_bytes):
        stream = data.draw(lookup_streams(
            cache.num_vertices, max(cache.hot_capacity,
                                    cache.warm_capacity)))
        requested = 0
        for batch in stream:
            lookup = cache.lookup(batch)
            requested += len(batch)
            # Every requested row is served by exactly one tier.
            assert lookup.num_hot + lookup.num_warm + lookup.num_cold \
                == len(batch)
            assert cache.requests == requested
            if cache.enabled:
                # Single residency, per-tier capacity, and the id lists
                # agree with the per-row tier codes.
                assert not np.intersect1d(cache._hot_ids,
                                          cache._warm_ids).size
                live = cache.residency()
                assert live == {"hot": len(cache._hot_ids),
                                "warm": len(cache._warm_ids)}
                assert live["hot"] <= cache.hot_capacity
                assert live["warm"] <= cache.warm_capacity
            bill = cache.bill(lookup, row_bytes, SPEC)
            if cache.backing == "host" and cache.warm_capacity == 0:
                # The paper's flat cache: a miss pays gather + PCIe of
                # the missed bytes, exactly — no disk-only term left.
                missed = len(lookup.misses) * row_bytes
                assert bill.total_seconds == (
                    SPEC.gather_time(missed) + SPEC.pcie_time(missed)
                    if missed else 0.0)
            elif cache.backing == "disk" and lookup.num_cold:
                assert bill.cold_seconds > SPEC.disk_time(
                    lookup.num_cold * row_bytes)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), hot=st.integers(0, 60),
           edges=st.integers(0, 500),
           policy=st.sampled_from(["lru", "degree"]))
    def test_host_backed_methods_match_flat_formulas(self, data, hot,
                                                     edges, policy):
        """Decision 1 for training: over host-resident features each
        transfer method bills what its ``_transfer_flat`` did."""
        num_vertices, row = 200, 64
        scores = np.arange(num_vertices) % 7
        cache = TieredCache(num_vertices, hot, 0, policy=policy,
                            scores=scores, backing="host")
        mirror = TieredCache(num_vertices, hot, 0, policy=policy,
                             scores=scores, backing="host")
        for batch in data.draw(lookup_streams(num_vertices, hot)):
            stats = BatchStats(input_nodes=batch,
                               feature_bytes_per_vertex=row,
                               subgraph_edges=edges,
                               num_vertices_total=num_vertices)
            for method in (ExtractLoad(), ZeroCopy(), HybridTransfer()):
                # Same residency on both sides: static placement never
                # moves, and lru sees the same stream three times over.
                misses = mirror.lookup(batch).misses
                got = method.transfer(stats, SPEC, cache=cache)
                miss_bytes = len(misses) * row
                if method.name == "extract-load":
                    want = (SPEC.gather_time(miss_bytes),
                            SPEC.pcie_time(miss_bytes
                                           + stats.topology_bytes,
                                           transfers=2))
                elif method.name == "zero-copy":
                    want = (0.0, SPEC.zero_copy_time(miss_bytes)
                            + SPEC.pcie_time(stats.topology_bytes,
                                             transfers=1))
                else:
                    flat = method._block_breakdown(misses, stats, SPEC)
                    want = (flat.extract_seconds, flat.load_seconds)
                assert (got.extract_seconds, got.load_seconds) == want
                assert got.disk_seconds == 0.0
                assert got.total_seconds == want[0] + want[1]
                assert got.tier_seconds is None
