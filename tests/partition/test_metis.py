"""Unit tests for the multilevel multi-constraint (Metis-extend)
partitioner."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph import flat_graph, load_dataset
from repro.partition import (HashPartitioner, MetisPartitioner,
                             balance_ratio, edge_cut_fraction,
                             metis_clusters, metis_partition)


@pytest.fixture(scope="module")
def community_graph():
    graph, comm = flat_graph(800, 16, np.random.default_rng(0),
                             num_communities=4, mixing=0.05)
    return graph, comm


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.5)


class TestMetisPartition:
    def test_recovers_planted_communities(self, community_graph):
        graph, comm = community_graph
        assignment = metis_partition(graph, 4,
                                     rng=np.random.default_rng(1))
        # Planted-partition with 5% mixing: cut should be near the planted
        # level, far below random (0.75).
        assert edge_cut_fraction(graph, assignment) < 0.25

    def test_beats_hash_on_cut(self, dataset):
        metis = metis_partition(dataset.graph, 4,
                                rng=np.random.default_rng(1))
        hash_res = HashPartitioner().partition(
            dataset.graph, 4, rng=np.random.default_rng(1))
        assert (edge_cut_fraction(dataset.graph, metis)
                < 0.7 * edge_cut_fraction(dataset.graph,
                                          hash_res.assignment))

    def test_vertex_balance(self, community_graph):
        graph, _ = community_graph
        assignment = metis_partition(graph, 4,
                                     rng=np.random.default_rng(2))
        assert balance_ratio(assignment, 4) < 1.3

    def test_constraint_balance(self, dataset):
        train = dataset.split.train_mask.astype(np.float64)
        assignment = metis_partition(
            dataset.graph, 4, constraints=train,
            rng=np.random.default_rng(3))
        assert balance_ratio(assignment, 4, train) < 1.35

    def test_bad_constraints_shape(self, community_graph):
        graph, _ = community_graph
        with pytest.raises(PartitionError):
            metis_partition(graph, 2, constraints=np.ones((10, 1)))

    def test_negative_constraints(self, community_graph):
        graph, _ = community_graph
        with pytest.raises(PartitionError):
            metis_partition(graph, 2,
                            constraints=-np.ones(graph.num_vertices))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_constraints(self, community_graph, bad):
        """A nan column weight used to slip past the ``< 0`` check and
        skew the parts (107/31/31/31 at n=200, k=4); inf was accepted."""
        graph, _ = community_graph
        constraints = np.ones((graph.num_vertices, 2))
        constraints[17, 1] = bad
        with pytest.raises(PartitionError, match="finite"):
            metis_partition(graph, 4, constraints=constraints)

    def test_every_vertex_assigned(self, community_graph):
        graph, _ = community_graph
        assignment = metis_partition(graph, 3,
                                     rng=np.random.default_rng(4))
        assert len(assignment) == graph.num_vertices
        assert assignment.min() >= 0 and assignment.max() < 3

    def test_two_parts(self, community_graph):
        graph, _ = community_graph
        assignment = metis_partition(graph, 2,
                                     rng=np.random.default_rng(5))
        assert set(np.unique(assignment)) == {0, 1}


class TestMetisClusters:
    def test_cluster_count_respected(self, dataset):
        clusters = metis_clusters(dataset.graph, 10,
                                  rng=np.random.default_rng(0))
        assert clusters.max() < 10

    def test_clusters_are_dense(self, dataset):
        clusters = metis_clusters(dataset.graph, 8,
                                  rng=np.random.default_rng(0))
        # Intra-cluster edge fraction far above the random baseline 1/8.
        src, dst = dataset.graph.edges()
        intra = (clusters[src] == clusters[dst]).mean()
        assert intra > 0.4


class TestMetisPartitioner:
    def test_variants(self):
        assert MetisPartitioner("v").name == "metis-v"
        assert MetisPartitioner("vet").name == "metis-vet"
        with pytest.raises(PartitionError):
            MetisPartitioner("vx")

    def test_requires_split(self, dataset):
        with pytest.raises(PartitionError):
            MetisPartitioner("v").partition(dataset.graph, 2)

    def test_ve_balances_degrees_better_than_v(self, dataset):
        degrees = dataset.graph.out_degrees.astype(np.float64)
        ratios = {}
        for variant in ("v", "ve"):
            values = []
            for seed in range(3):
                res = MetisPartitioner(variant).partition(
                    dataset.graph, 4, split=dataset.split,
                    rng=np.random.default_rng(seed))
                values.append(balance_ratio(res.assignment, 4, degrees))
            ratios[variant] = np.mean(values)
        assert ratios["ve"] <= ratios["v"] + 0.02

    def test_vet_balances_val_test(self, dataset):
        res = MetisPartitioner("vet").partition(
            dataset.graph, 4, split=dataset.split,
            rng=np.random.default_rng(0))
        val = dataset.split.val_mask.astype(np.float64)
        assert balance_ratio(res.assignment, 4, val) < 1.5
