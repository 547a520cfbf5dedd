"""Unit tests for batch selection and batch-size schedules."""

import numpy as np
import pytest

from repro.errors import SamplingError, TrainingError
from repro.batching import (ClusterBatchSelector, FixedBatchSize,
                            PlateauAdaptiveBatchSize, RandomBatchSelector)
from repro.graph import load_dataset


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


class TestRandomSelection:
    def test_covers_all_train_ids_once(self, dataset):
        selector = RandomBatchSelector()
        batches = list(selector.batches(dataset.train_ids, 64,
                                        np.random.default_rng(0)))
        flat = np.concatenate(batches)
        assert sorted(flat) == sorted(dataset.train_ids)

    def test_batch_sizes(self, dataset):
        batches = list(RandomBatchSelector().batches(
            dataset.train_ids, 64, np.random.default_rng(0)))
        assert all(len(b) == 64 for b in batches[:-1])
        assert 0 < len(batches[-1]) <= 64

    def test_shuffled_between_epochs(self, dataset):
        selector = RandomBatchSelector()
        first = next(iter(selector.batches(dataset.train_ids, 64,
                                           np.random.default_rng(1))))
        second = next(iter(selector.batches(dataset.train_ids, 64,
                                            np.random.default_rng(2))))
        assert not np.array_equal(first, second)

    def test_empty_train_set(self):
        with pytest.raises(SamplingError):
            list(RandomBatchSelector().batches([], 8,
                                               np.random.default_rng(0)))

    def test_bad_batch_size(self, dataset):
        with pytest.raises(SamplingError):
            list(RandomBatchSelector().batches(dataset.train_ids, 0,
                                               np.random.default_rng(0)))


class TestClusterSelection:
    def test_covers_all_train_ids_once(self, dataset):
        selector = ClusterBatchSelector(dataset.graph)
        batches = list(selector.batches(dataset.train_ids, 64,
                                        np.random.default_rng(0)))
        flat = np.concatenate(batches)
        assert sorted(flat) == sorted(dataset.train_ids)

    def test_batches_are_denser_than_random(self, dataset):
        """Cluster batches share neighbors: the union of the batch's
        1-hop neighborhoods is smaller than for random batches."""
        def neighborhood_size(batches):
            total = 0
            for batch in batches:
                chunks = [dataset.graph.out_neighbors(v) for v in batch]
                total += len(np.unique(np.concatenate(chunks)))
            return total

        random_batches = list(RandomBatchSelector().batches(
            dataset.train_ids, 64, np.random.default_rng(0)))
        cluster_batches = list(ClusterBatchSelector(dataset.graph).batches(
            dataset.train_ids, 64, np.random.default_rng(0)))
        assert (neighborhood_size(cluster_batches)
                < neighborhood_size(random_batches))

    def test_clustering_cached(self, dataset):
        selector = ClusterBatchSelector(dataset.graph)
        list(selector.batches(dataset.train_ids, 64,
                              np.random.default_rng(0)))
        clusters_first = selector._clusters
        list(selector.batches(dataset.train_ids, 64,
                              np.random.default_rng(1)))
        assert selector._clusters is clusters_first


class TestSchedules:
    def test_fixed(self):
        schedule = FixedBatchSize(128)
        assert schedule.size(0) == schedule.size(99) == 128

    def test_fixed_invalid(self):
        with pytest.raises(TrainingError):
            FixedBatchSize(0)

    def test_plateau_grows_on_stagnation(self):
        schedule = PlateauAdaptiveBatchSize(64, 512, factor=2.0, patience=2)
        assert schedule.size(0) == 64
        schedule.observe(0, 0.5)
        schedule.observe(1, 0.5)   # stale 1
        schedule.observe(2, 0.5)   # stale 2 -> grow
        assert schedule.size(3) == 128

    def test_plateau_resets_on_improvement(self):
        schedule = PlateauAdaptiveBatchSize(64, 512, patience=2)
        schedule.observe(0, 0.5)
        schedule.observe(1, 0.6)   # improvement
        schedule.observe(2, 0.7)   # improvement
        assert schedule.size(3) == 64

    def test_plateau_capped_at_maximum(self):
        schedule = PlateauAdaptiveBatchSize(64, 100, factor=4.0, patience=1)
        schedule.observe(0, 0.5)
        schedule.observe(1, 0.5)
        schedule.observe(2, 0.5)
        assert schedule.size(3) == 100
