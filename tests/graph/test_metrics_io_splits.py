"""Unit tests for graph metrics, io round-trips, splits, and features."""

import numpy as np
import pytest

from repro.errors import DatasetError, GraphError
from repro.graph import (community_features_and_labels, dataset_from_arrays,
                         degree_gini,
                         from_edges, load_dataset, load_dataset_file,
                         load_graph, local_clustering_coefficients,
                         random_features_and_labels, save_dataset,
                         save_graph, split_vertices)


def complete_graph(n):
    src, dst = np.meshgrid(np.arange(n), np.arange(n))
    return from_edges(src.ravel(), dst.ravel(), n, symmetrize_edges=True)


class TestClustering:
    def test_complete_graph_coefficient_one(self):
        coeffs = local_clustering_coefficients(complete_graph(5))
        assert np.allclose(coeffs, 1.0)

    def test_star_graph_coefficient_zero(self):
        g = from_edges([0, 0, 0], [1, 2, 3], 4, symmetrize_edges=True)
        assert np.all(local_clustering_coefficients(g) == 0.0)

    def test_triangle_plus_pendant(self):
        # Triangle 0-1-2 plus pendant 3 attached to 0.
        g = from_edges([0, 1, 2, 0], [1, 2, 0, 3], 4, symmetrize_edges=True)
        coeffs = local_clustering_coefficients(g)
        assert coeffs[1] == pytest.approx(1.0)
        assert coeffs[0] == pytest.approx(1.0 / 3.0)
        assert coeffs[3] == 0.0

    def test_empty_graph(self):
        g = from_edges([], [], 0)
        assert len(local_clustering_coefficients(g)) == 0


class TestDegreeGini:
    def test_regular_graph_zero(self):
        g = from_edges([0, 1, 2], [1, 2, 0], 3, symmetrize_edges=True)
        assert degree_gini(g) == pytest.approx(0.0, abs=1e-9)

    def test_star_is_skewed(self):
        g = from_edges([0] * 20, list(range(1, 21)), 21,
                       symmetrize_edges=True)
        assert degree_gini(g) > 0.4


class TestSplits:
    def test_partition_property(self):
        split = split_vertices(997, np.random.default_rng(0))
        split.validate()

    def test_custom_ratio(self):
        split = split_vertices(1000, np.random.default_rng(0),
                               ratios=(0.5, 0.25, 0.25))
        assert len(split.train_ids) == 500

    def test_bad_ratios(self):
        with pytest.raises(DatasetError):
            split_vertices(10, np.random.default_rng(0), ratios=(0.5, 0.5))
        with pytest.raises(DatasetError):
            split_vertices(10, np.random.default_rng(0),
                           ratios=(0.9, 0.2, -0.1))


class TestFeatures:
    def test_community_features_shapes(self):
        comm = np.array([0, 0, 1, 1, 2])
        feats, labels = community_features_and_labels(
            comm, 16, 3, np.random.default_rng(0))
        assert feats.shape == (5, 16)
        assert feats.dtype == np.float32
        assert labels.dtype == np.int64

    def test_labels_follow_communities_without_noise(self):
        comm = np.array([0, 1, 2, 0, 1, 2])
        _, labels = community_features_and_labels(
            comm, 4, 3, np.random.default_rng(0), label_noise=0.0)
        assert np.array_equal(labels, comm)

    def test_community_signal_separates_centroids(self):
        comm = np.repeat(np.arange(4), 50)
        feats, _ = community_features_and_labels(
            comm, 32, 4, np.random.default_rng(0), noise=0.1)
        centroids = np.stack([feats[comm == c].mean(axis=0)
                              for c in range(4)])
        dists = np.linalg.norm(centroids[0] - centroids[1:], axis=1)
        assert np.all(dists > 1.0)

    def test_random_features(self):
        feats, labels = random_features_and_labels(
            100, 8, 5, np.random.default_rng(0))
        assert feats.shape == (100, 8)
        assert set(np.unique(labels)) <= set(range(5))

    def test_bad_dims(self):
        with pytest.raises(DatasetError):
            random_features_and_labels(10, 0, 5, np.random.default_rng(0))


class TestIO:
    def test_graph_roundtrip(self, tmp_path):
        g, _ = __import__("repro.graph", fromlist=["power_law_graph"]) \
            .power_law_graph(200, 8, np.random.default_rng(0))
        path = tmp_path / "g.npz"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded == g
        assert loaded.is_symmetric == g.is_symmetric

    def test_dataset_roundtrip(self, tmp_path):
        ds = load_dataset("ogb-arxiv", scale=0.25)
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        loaded = load_dataset_file(path)
        assert loaded.graph == ds.graph
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.split.train_mask, ds.split.train_mask)

    def test_user_dataset_roundtrip(self, tmp_path):
        """A dataset built from the caller's arrays comes back with the
        same arrays, split and spec (it used to be rejected as an
        unknown dataset)."""
        rng = np.random.default_rng(4)
        graph = from_edges(rng.integers(0, 40, 120), rng.integers(0, 40, 120),
                           40, symmetrize_edges=True)
        ds = dataset_from_arrays(graph, rng.normal(size=(40, 6)),
                                 rng.integers(0, 3, 40), num_classes=5,
                                 name="mine",
                                 communities=rng.integers(0, 2, 40))
        path = tmp_path / "mine.npz"
        save_dataset(ds, path)
        loaded = load_dataset_file(path)
        assert loaded.spec == ds.spec
        assert loaded.graph == ds.graph
        for name in ("features", "labels", "communities"):
            mine, theirs = getattr(loaded, name), getattr(ds, name)
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()
        for mask in ("train_mask", "val_mask", "test_mask"):
            assert np.array_equal(getattr(loaded.split, mask),
                                  getattr(ds.split, mask))

    def test_dataset_file_missing_array_is_a_graph_error(self, tmp_path):
        ds = load_dataset("ogb-arxiv", scale=0.25)
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        with np.load(path) as data:
            kept = {key: data[key] for key in data.files if key != "labels"}
        np.savez(path, **kept)
        with pytest.raises(GraphError, match=r"ds\.npz.*'labels'"):
            load_dataset_file(path)
