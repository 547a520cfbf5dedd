"""Unit tests for the dynamic LRU cache and bring-your-own-data
ingestion."""

import numpy as np
import pytest

from repro import Trainer, TrainingConfig
from repro.errors import DatasetError, GraphError
from repro.graph import (dataset_from_arrays, load_dataset,
                         load_edge_list, power_law_graph)
from repro.transfer import make_tiered_cache


@pytest.fixture(scope="module")
def graph():
    g, _comm = power_law_graph(300, 8, np.random.default_rng(0))
    return g


def lru_cache(graph, ratio):
    """One GPU tier of LRU-managed rows over host-resident features."""
    return make_tiered_cache("lru", graph, ratio, 0.0, backing="host")


class TestLRUCache:
    def test_admits_misses(self, graph):
        cache = lru_cache(graph, 0.2)
        assert len(cache.lookup([1, 2, 3]).misses) == 3
        lookup = cache.lookup([1, 2, 3])
        assert len(lookup.hot_ids) == 3 and len(lookup.misses) == 0

    def test_capacity_respected(self, graph):
        cache = lru_cache(graph, 0.1)
        rng = np.random.default_rng(0)
        for _round in range(20):
            cache.lookup(rng.integers(0, graph.num_vertices, 50))
        assert cache.residency()["hot"] <= cache.hot_capacity

    def test_evicts_least_recently_used(self, graph):
        cache = lru_cache(graph, 2 / graph.num_vertices)  # capacity 2
        assert cache.hot_capacity == 2
        cache.lookup([0])
        cache.lookup([1])
        cache.lookup([0])      # refresh 0
        cache.lookup([2])      # evicts 1 (LRU), not 0
        assert len(cache.lookup([0]).hot_ids) == 1
        assert len(cache.lookup([1]).hot_ids) == 0

    def test_hot_set_converges_to_high_hit_rate(self, graph):
        cache = lru_cache(graph, 0.3)
        rng = np.random.default_rng(1)
        hot = rng.choice(graph.num_vertices, 40, replace=False)
        for _round in range(30):
            cache.lookup(hot)
        cache.reset_stats()
        cache.lookup(hot)
        assert cache.hit_rate == 1.0

    def test_zero_capacity_never_hits(self, graph):
        cache = lru_cache(graph, 0.0)
        cache.lookup([0, 1])
        cache.lookup([0, 1])
        assert cache.hot_hits == 0

    def test_trainer_with_lru_cache(self):
        dataset = load_dataset("ogb-arxiv", scale=0.25)
        config = TrainingConfig(epochs=2, batch_size=128, fanout=(4, 4),
                                num_workers=2, partitioner="hash",
                                cache_policy="lru", cache_ratio=0.3)
        plain = TrainingConfig(epochs=2, batch_size=128, fanout=(4, 4),
                               num_workers=2, partitioner="hash")
        cached = Trainer(dataset, config).run()
        baseline = Trainer(dataset, plain).run()
        assert cached.mean_epoch_seconds <= baseline.mean_epoch_seconds


class TestEdgeListIngestion:
    def test_parses_snap_style_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n% other comment\n"
                        "10 20\n20 30\n10 30\n")
        graph, original = load_edge_list(path)
        assert graph.num_vertices == 3
        assert list(original) == [10, 20, 30]
        assert graph.is_symmetric
        assert graph.num_edges == 6  # three undirected edges

    def test_directed_mode(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n")
        graph, _original = load_edge_list(path, symmetrize_edges=False)
        assert graph.num_edges == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("42\n")
        with pytest.raises(GraphError):
            load_edge_list(path)

    def test_non_integer_id_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# ids\n0 1\n2 x\n")
        with pytest.raises(GraphError,
                           match=r"edges\.txt:3: malformed edge line '2 x'"):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphError):
            load_edge_list(path)


class TestDatasetFromArrays:
    def test_wraps_and_trains(self, graph):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(graph.num_vertices, 16))
        labels = rng.integers(0, 5, size=graph.num_vertices)
        dataset = dataset_from_arrays(graph, features, labels,
                                      name="mine")
        assert dataset.name == "mine"
        assert dataset.num_classes == labels.max() + 1
        dataset.split.validate()
        config = TrainingConfig(epochs=2, batch_size=32, fanout=(3, 3),
                                num_workers=2, partitioner="hash")
        result = Trainer(dataset, config).run()
        assert result.curve.num_epochs == 2

    def test_shape_checks(self, graph):
        rng = np.random.default_rng(0)
        good_labels = rng.integers(0, 3, size=graph.num_vertices)
        with pytest.raises(DatasetError):
            dataset_from_arrays(graph, np.zeros((5, 4)), good_labels)
        with pytest.raises(DatasetError):
            dataset_from_arrays(graph,
                                np.zeros((graph.num_vertices, 4)),
                                np.zeros(3, dtype=int))

    def test_negative_labels_rejected(self, graph):
        features = np.zeros((graph.num_vertices, 4))
        labels = np.full(graph.num_vertices, -1)
        with pytest.raises(DatasetError):
            dataset_from_arrays(graph, features, labels)

    def test_end_to_end_from_file(self, tmp_path):
        """The advertised adoption path: edge list file -> dataset ->
        training."""
        rng = np.random.default_rng(3)
        lines = ["%% header"]
        for _edge in range(600):
            lines.append(f"{rng.integers(100)} {rng.integers(100)}")
        path = tmp_path / "mygraph.txt"
        path.write_text("\n".join(lines))
        graph, _original = load_edge_list(path)
        features = rng.normal(size=(graph.num_vertices, 8))
        labels = rng.integers(0, 4, size=graph.num_vertices)
        dataset = dataset_from_arrays(graph, features, labels)
        result = Trainer(dataset, TrainingConfig(
            epochs=2, batch_size=16, fanout=(3, 3), num_workers=2,
            partitioner="metis-ve")).run()
        assert 0.0 <= result.best_val_accuracy <= 1.0
