"""Unit tests for streaming partitioners (Stream-V / Stream-B)."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph import from_edges, load_dataset
from repro.partition import (StreamBPartitioner, StreamVPartitioner,
                             build_bfs_blocks, l_hop_neighborhood)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


def path_graph(n):
    src = list(range(n - 1))
    dst = list(range(1, n))
    return from_edges(src, dst, n, symmetrize_edges=True)


class TestLHopNeighborhood:
    def test_path_graph_hops(self):
        g = path_graph(10)
        one = l_hop_neighborhood(g, 5, 1)
        assert sorted(one) == [4, 6]
        two = l_hop_neighborhood(g, 5, 2)
        assert sorted(two) == [3, 4, 6, 7]

    def test_excludes_self(self):
        g = path_graph(5)
        assert 2 not in l_hop_neighborhood(g, 2, 2)

    def test_hop_cap_limits(self):
        # Star: center 0 connected to 1..20.
        g = from_edges([0] * 20, list(range(1, 21)), 21,
                       symmetrize_edges=True)
        capped = l_hop_neighborhood(g, 0, 1, hop_cap=5)
        assert len(capped) == 5

    def test_isolated_vertex(self):
        g = from_edges([0], [1], 3, symmetrize_edges=True)
        assert len(l_hop_neighborhood(g, 2, 2)) == 0

    @pytest.mark.parametrize("rng", [None, np.random.default_rng(0)],
                             ids=["no-rng", "rng"])
    @pytest.mark.parametrize("hop_cap", [0, -1, 2.5, True, "16"])
    def test_bad_hop_cap(self, hop_cap, rng):
        g = path_graph(5)
        with pytest.raises(PartitionError, match="hop_cap"):
            l_hop_neighborhood(g, 2, 1, hop_cap=hop_cap, rng=rng)

    def test_numpy_int_hop_cap(self):
        g = from_edges([0] * 20, list(range(1, 21)), 21,
                       symmetrize_edges=True)
        capped = l_hop_neighborhood(g, 0, 1, hop_cap=np.int64(5),
                                    rng=np.random.default_rng(0))
        assert len(capped) == 5


class TestStreamV:
    def test_requires_split(self, dataset):
        with pytest.raises(PartitionError):
            StreamVPartitioner().partition(dataset.graph, 2)

    def test_bad_hops(self):
        with pytest.raises(PartitionError):
            StreamVPartitioner(hops=0)

    @pytest.mark.parametrize("hop_cap", [0, -3, 2.5, False, "16"])
    def test_bad_hop_cap(self, hop_cap):
        with pytest.raises(PartitionError, match="hop_cap"):
            StreamVPartitioner(hop_cap=hop_cap)

    def test_replicas_present(self, dataset):
        res = StreamVPartitioner().partition(
            dataset.graph, 4, split=dataset.split,
            rng=np.random.default_rng(0))
        assert res.replicas is not None
        assert res.replication_factor() > 1.5

    def test_train_vertices_balanced(self, dataset):
        res = StreamVPartitioner().partition(
            dataset.graph, 4, split=dataset.split,
            rng=np.random.default_rng(0))
        counts = np.bincount(res.assignment[dataset.train_ids], minlength=4)
        assert counts.max() / counts.mean() < 1.25

    def test_train_one_hop_is_local(self, dataset):
        """Each machine caches (at least the capped part of) the 1-hop
        neighborhood of its training vertices."""
        res = StreamVPartitioner(hops=2, hop_cap=None).partition(
            dataset.graph, 4, split=dataset.split,
            rng=np.random.default_rng(0))
        for v in dataset.train_ids[:50]:
            part = res.assignment[v]
            neighbors = dataset.graph.out_neighbors(v)
            assert res.is_local(part, neighbors).all()


class TestStreamB:
    def test_requires_split(self, dataset):
        with pytest.raises(PartitionError):
            StreamBPartitioner().partition(dataset.graph, 2)

    def test_bad_block_size(self):
        with pytest.raises(PartitionError):
            StreamBPartitioner(block_size=0)

    def test_blocks_cover_all_vertices(self, dataset):
        blocks = build_bfs_blocks(dataset.graph, dataset.train_ids,
                                  np.random.default_rng(0), block_size=16)
        covered = np.concatenate(blocks)
        assert len(covered) == dataset.num_vertices
        assert len(np.unique(covered)) == dataset.num_vertices

    def test_block_size_respected(self, dataset):
        blocks = build_bfs_blocks(dataset.graph, dataset.train_ids,
                                  np.random.default_rng(0), block_size=16)
        assert max(len(b) for b in blocks) <= 16

    def test_all_assigned(self, dataset):
        res = StreamBPartitioner().partition(
            dataset.graph, 4, split=dataset.split,
            rng=np.random.default_rng(0))
        assert res.assignment.min() >= 0

    def test_type_balance(self, dataset):
        res = StreamBPartitioner().partition(
            dataset.graph, 4, split=dataset.split,
            rng=np.random.default_rng(0))
        train_counts = np.bincount(res.assignment[dataset.train_ids],
                                   minlength=4)
        assert train_counts.max() / train_counts.mean() < 1.6

    def test_blocks_keep_neighbors_together(self, dataset):
        """Cluster locality: block streaming should cut far fewer edges
        than random assignment."""
        from repro.partition import HashPartitioner, edge_cut_fraction
        stream = StreamBPartitioner().partition(
            dataset.graph, 4, split=dataset.split,
            rng=np.random.default_rng(0))
        hashed = HashPartitioner().partition(
            dataset.graph, 4, rng=np.random.default_rng(0))
        assert (edge_cut_fraction(dataset.graph, stream.assignment)
                < edge_cut_fraction(dataset.graph, hashed.assignment))
