"""Tests rounding out coverage of less-traveled public API paths."""

import numpy as np
import pytest

from repro.core import make_partitioner
from repro.errors import GraphError
from repro.graph import from_edges, load_dataset, load_graph
from repro.partition import StreamVPartitioner, quality_report
from repro.sampling import NeighborSampler
from repro.transfer import BatchStats, HybridTransfer, DEFAULT_SPEC


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


class TestPartitionSubgraphs:
    def test_owned_subgraphs_partition_vertices(self, dataset):
        result = make_partitioner("hash").partition(
            dataset.graph, 3, rng=np.random.default_rng(0))
        owned = [result.part_vertices(part) for part in range(3)]
        assert sum(len(vertices) for vertices in owned) \
            == dataset.num_vertices

    def test_replicated_subgraphs_overlap(self, dataset):
        result = StreamVPartitioner(hop_cap=4).partition(
            dataset.graph, 3, split=dataset.split,
            rng=np.random.default_rng(0))
        # Replication: stored vertices exceed the vertex count.
        assert result.replicas.sum() > dataset.num_vertices


class TestHashEdgeFactory:
    def test_hash_edge_partitioner(self, dataset):
        partitioner = make_partitioner("hash-edge")
        result = partitioner.partition(dataset.graph, 3,
                                       rng=np.random.default_rng(0))
        assert result.method == "hash-edge"
        report = quality_report(dataset.graph, result)
        assert 0 < report["edge_cut_fraction"] < 1


class TestIOErrors:
    def test_load_graph_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(GraphError):
            load_graph(path)


class TestHybridTransferMidThreshold:
    def test_mixes_dma_and_zero_copy(self, dataset):
        """At a mid threshold on a half-active batch, hybrid uses both
        paths (dense-block DMA and sparse zero-copy)."""
        sampler = NeighborSampler((3, 3))
        subgraph = sampler.sample(dataset.graph, dataset.train_ids[:64],
                                  np.random.default_rng(0))
        stats = BatchStats.from_subgraph(subgraph, dataset)
        hybrid = HybridTransfer(threshold=0.5, block_bytes=2048)
        breakdown = hybrid.transfer(stats, DEFAULT_SPEC)
        assert breakdown.total_seconds > 0
        assert breakdown.bytes_moved >= stats.topology_bytes


class TestDatasetEdgeCases:
    def test_scale_floor(self):
        tiny = load_dataset("reddit", scale=1e-9)
        assert tiny.num_vertices == 64

    def test_seed_override_changes_graph(self):
        a = load_dataset("ogb-arxiv", scale=0.25, seed=1, cache=False)
        b = load_dataset("ogb-arxiv", scale=0.25, seed=2, cache=False)
        assert a.graph != b.graph
