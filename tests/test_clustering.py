"""Unit tests for the graph-clustering task (k-means + NMI)."""

import numpy as np
import pytest

from repro import Trainer, TrainingConfig, load_dataset
from repro.errors import TrainingError
from repro.tasks import (cluster_dataset, cluster_embeddings, kmeans,
                         normalized_mutual_information)


@pytest.fixture(scope="module")
def blobs():
    """Three well-separated Gaussian blobs."""
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate([
        center + rng.normal(scale=0.5, size=(50, 2))
        for center in centers])
    labels = np.repeat(np.arange(3), 50)
    return points, labels


class TestKMeans:
    def test_recovers_blobs(self, blobs):
        points, truth = blobs
        labels, centroids, inertia = kmeans(points, 3,
                                            np.random.default_rng(1))
        assert normalized_mutual_information(labels, truth) > 0.95
        assert centroids.shape == (3, 2)
        assert inertia < 200

    def test_single_cluster(self, blobs):
        points, _truth = blobs
        labels, _c, _i = kmeans(points, 1, np.random.default_rng(0))
        assert set(labels) == {0}

    def test_invalid_k(self, blobs):
        points, _truth = blobs
        with pytest.raises(TrainingError):
            kmeans(points, 0, np.random.default_rng(0))
        with pytest.raises(TrainingError):
            kmeans(points, len(points) + 1, np.random.default_rng(0))

    def test_restarts_pick_best(self, blobs):
        points, truth = blobs
        labels = cluster_embeddings(points, 3, np.random.default_rng(2),
                                    restarts=3)
        assert normalized_mutual_information(labels, truth) > 0.9

    def test_deterministic_given_rng(self, blobs):
        points, _truth = blobs
        a, _c, _i = kmeans(points, 3, np.random.default_rng(7))
        b, _c2, _i2 = kmeans(points, 3, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestNMI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_information(labels, labels) \
            == pytest.approx(1.0)

    def test_renamed_partitions(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([5, 5, 3, 3])
        assert normalized_mutual_information(a, b) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=5000)
        b = rng.integers(0, 4, size=5000)
        assert normalized_mutual_information(a, b) < 0.01

    def test_constant_labelings(self):
        a = np.zeros(10, dtype=int)
        assert normalized_mutual_information(a, a) == 1.0

    def test_misaligned_inputs(self):
        with pytest.raises(TrainingError):
            normalized_mutual_information([0, 1], [0])
        with pytest.raises(TrainingError):
            normalized_mutual_information([], [])

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 3, 200)
        b = rng.integers(0, 5, 200)
        assert normalized_mutual_information(a, b) == pytest.approx(
            normalized_mutual_information(b, a))


class TestClusterDataset:
    def test_trained_embeddings_find_communities(self):
        dataset = load_dataset("ogb-arxiv", scale=0.25)
        config = TrainingConfig(epochs=5, batch_size=128, fanout=(6, 6),
                                num_workers=1, partitioner="hash")
        trainer = Trainer(dataset, config)
        engine, _p, sampler, model, _opt = trainer._build_engine()
        rng = config.rng(100)
        for epoch in range(5):
            engine.run_epoch(128, rng, epoch=epoch)
        result = cluster_dataset(dataset, model, sampler,
                                 rng=np.random.default_rng(0))
        # Planted communities are recoverable from embeddings: far
        # above the ~0 NMI of independent labelings.
        assert result.nmi_vs_communities > 0.5
        assert result.nmi_vs_classes > 0.4
        assert len(result.labels) == dataset.num_vertices
