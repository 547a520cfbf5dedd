"""The perf subsystem itself: profiler, workspace pool, flags."""

import numpy as np
import pytest

from repro.perf import (FLAGS, PERF, EvalSubgraphCache, StageProfiler,
                        Workspace, ordered_sum, percentile, perf_overrides,
                        summarize)
from repro.sampling import NeighborSampler


class TestStageProfiler:
    def test_counters_accumulate(self):
        profiler = StageProfiler()
        profiler.counters["hits"] += 1
        profiler.counters["hits"] += 2
        assert profiler.snapshot()["hits"] == 3

    def test_delta_drops_unmoved(self):
        profiler = StageProfiler()
        profiler.counters["old"] += 1
        before = profiler.snapshot()
        profiler.counters["new"] += 1
        assert profiler.delta(before) == {"new": 1}

    def test_reset(self):
        profiler = StageProfiler()
        profiler.counters["x"] += 1
        profiler.counters["y"] += 2
        profiler.reset()
        assert profiler.snapshot() == {}

    def test_global_singleton_exists(self):
        assert isinstance(PERF, StageProfiler)


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(0)
        values = list(rng.exponential(1.0, size=137))
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                np.percentile(values, q), rel=1e-12)

    def test_single_value(self):
        assert percentile([4.2], 50) == 4.2
        assert percentile([4.2], 99) == 4.2

    def test_interpolates_between_ranks(self):
        # ranks 0..3; p50 sits exactly between 2.0 and 3.0.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestObservations:
    """``summarize``: the one digest of a node's observation columns
    (``StageProfiler`` keeps counters and timers only)."""

    def test_summary_shape(self):
        summary = summarize([float(value) for value in range(1, 101)])
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(
            np.percentile(np.arange(1.0, 101.0), 50))
        assert summary["p95"] <= summary["p99"] <= summary["max"] == 100.0

    def test_summary_missing_returns_none(self):
        assert summarize([]) is None

    def test_mean_sums_in_the_order_given(self):
        # Float addition is not associative: the column's order is part
        # of the mean's bits, so ``summarize`` must not sum its sorted
        # copy — nor compensate, as the builtin ``sum`` does from 3.12.
        values = [1e16, 1.0, -1e16, 1.0]
        assert summarize(values)["mean"] == ordered_sum(values) / 4 == 0.25
        assert summarize(values)["mean"] != ordered_sum(sorted(values)) / 4

    def test_integer_column_reports_floats(self):
        # An integer column digests to floats, as the report (and the
        # JSON bytes of every tracked BENCH file) carries them.
        summary = summarize([3, 1, 2])
        assert summary["max"] == 3.0 and isinstance(summary["max"], float)
        assert summary["p50"] == 2.0 and isinstance(summary["p50"], float)
        assert summary["mean"] == 2.0
        assert summarize([5.0, 1.0, 3.0])["p50"] == 3.0

    def test_profiler_keeps_no_distributions(self):
        profiler = StageProfiler()
        for name in ("observe", "percentile", "summary", "merge",
                     "observations"):
            assert not hasattr(profiler, name)


class TestWorkspace:
    def test_grows_geometrically_and_reuses(self):
        workspace = Workspace()
        lookup = workspace.borrow(10)
        assert len(lookup) >= 10
        assert np.all(lookup == -1)
        workspace.release(lookup)
        first_capacity = len(workspace._id_map)
        assert workspace.borrow(5) is lookup
        assert len(workspace._id_map) == first_capacity

    def test_grow_on_larger_request(self):
        workspace = Workspace()
        workspace.release(workspace.borrow(10))
        small = len(workspace._id_map)
        lookup = workspace.borrow(10 * small)
        assert len(lookup) >= 10 * small
        assert lookup is workspace._id_map

    def test_reentrant_borrow_gets_fresh_array(self):
        workspace = Workspace()
        outer = workspace.borrow(8)
        outer[3] = 7
        inner = workspace.borrow(8)
        assert inner is not outer
        assert np.all(inner == -1)
        # Dropping the fresh table leaves the pooled one lent out.
        workspace.release(inner)
        assert workspace._id_map_busy
        outer[3] = -1
        workspace.release(outer)
        assert not workspace._id_map_busy
        assert workspace.borrow(8) is outer

    def test_caller_restores_invariant(self):
        workspace = Workspace()
        lookup = workspace.borrow(16)
        lookup[[2, 5]] = [0, 1]
        lookup[[2, 5]] = -1
        workspace.release(lookup)
        assert np.all(workspace.borrow(16) == -1)


class TestPerfOverrides:
    def test_unknown_flag_rejected(self):
        with pytest.raises(AttributeError):
            with perf_overrides(not_a_flag=True):
                pass

    def test_nested_overrides_restore(self):
        assert FLAGS.sanitize
        with perf_overrides(sanitize=False):
            with perf_overrides(sanitize=True):
                assert FLAGS.sanitize
            assert not FLAGS.sanitize
        assert FLAGS.sanitize

    def test_restores_on_exception(self):
        assert FLAGS.sanitize
        with pytest.raises(RuntimeError):
            with perf_overrides(sanitize=False):
                raise RuntimeError
        assert FLAGS.sanitize


class TestEvalSubgraphCacheUnit:
    def test_key_depends_on_inputs(self):
        sampler_a = NeighborSampler((4, 4))
        sampler_b = NeighborSampler((4, 4))
        ids = np.arange(10)
        base = EvalSubgraphCache.make_key(sampler_a, ids, 8, 1)
        assert base == EvalSubgraphCache.make_key(sampler_a, ids, 8, 1)
        assert base != EvalSubgraphCache.make_key(sampler_b, ids, 8, 1)
        assert base != EvalSubgraphCache.make_key(sampler_a, ids, 4, 1)
        assert base != EvalSubgraphCache.make_key(sampler_a, ids, 8, 2)
        assert base != EvalSubgraphCache.make_key(sampler_a, ids + 1, 8, 1)

    def test_put_get_clear(self):
        cache = EvalSubgraphCache()
        cache.put("key", ["batch"])
        assert cache.get("key") == ["batch"]
        cache.clear()
        assert cache.get("key") is None

    def test_re_put_replaces_value(self):
        # Last write wins, explicitly: a re-put must not silently keep
        # the stale entry (the pre-fix behavior).
        cache = EvalSubgraphCache()
        cache.put("key", ["stale"])
        cache.put("key", ["fresh"])
        assert cache.get("key") == ["fresh"]

    def test_re_put_does_not_grow_cache(self):
        cache = EvalSubgraphCache(max_entries=2)
        cache.put("a", [1])
        cache.put("a", [2])
        cache.put("b", [3])
        # "a" replaced in place: both keys still resident.
        assert cache.get("a") == [2]
        assert cache.get("b") == [3]
