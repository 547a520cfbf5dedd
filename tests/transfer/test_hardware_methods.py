"""Unit tests for the hardware model and transfer methods."""

import numpy as np
import pytest

from repro.errors import TransferError
from repro.graph import load_dataset
from repro.sampling import NeighborSampler
from repro.transfer import (DEFAULT_SPEC, BatchStats, ExtractLoad,
                            HardwareSpec, HybridTransfer, ZeroCopy,
                            estimate_flops, make_tiered_cache,
                            make_transfer)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("livejournal", scale=0.4)


@pytest.fixture(scope="module")
def stats(dataset):
    sampler = NeighborSampler((10, 5))
    subgraph = sampler.sample(dataset.graph, dataset.train_ids[:256],
                              np.random.default_rng(0))
    return BatchStats.from_subgraph(subgraph, dataset)


class TestHardwareSpec:
    def test_pcie_time_scales_linearly(self):
        spec = DEFAULT_SPEC
        assert spec.pcie_time(2e9) > 1.9 * spec.pcie_time(1e9)

    def test_zero_copy_slower_per_byte_than_dma(self):
        spec = DEFAULT_SPEC
        payload = 1e8
        assert spec.zero_copy_time(payload) > payload / spec.pcie_bandwidth

    def test_invalid_bandwidth(self):
        with pytest.raises(TransferError):
            HardwareSpec(pcie_bandwidth=0)

    def test_invalid_efficiency(self):
        with pytest.raises(TransferError):
            HardwareSpec(zero_copy_efficiency=1.5)

    def test_with_overrides(self):
        spec = DEFAULT_SPEC.with_overrides(pcie_bandwidth=32e9)
        assert spec.pcie_bandwidth == 32e9
        assert spec.network_bandwidth == DEFAULT_SPEC.network_bandwidth

    def test_network_latency_counts_messages(self):
        spec = DEFAULT_SPEC
        one = spec.network_time(1000, messages=1)
        many = spec.network_time(1000, messages=10)
        assert many - one == pytest.approx(9 * spec.network_latency)

    def test_estimate_flops_grows_with_batch(self, dataset):
        sampler = NeighborSampler((10, 5))
        small = sampler.sample(dataset.graph, dataset.train_ids[:32],
                               np.random.default_rng(0))
        large = sampler.sample(dataset.graph, dataset.train_ids[:512],
                               np.random.default_rng(0))
        assert (estimate_flops(large, dataset.feature_dim, 128, 60)
                > estimate_flops(small, dataset.feature_dim, 128, 60))


class TestTransferMethods:
    def test_extract_load_has_extract_phase(self, stats):
        result = ExtractLoad().transfer(stats, DEFAULT_SPEC)
        assert result.extract_seconds > 0
        assert result.load_seconds > 0

    def test_zero_copy_skips_extraction(self, stats):
        result = ZeroCopy().transfer(stats, DEFAULT_SPEC)
        assert result.extract_seconds == 0.0

    def test_zero_copy_beats_extract_load(self, stats):
        """§7.3.1: zero-copy wins on the transfer step itself."""
        explicit = ExtractLoad().transfer(stats, DEFAULT_SPEC)
        implicit = ZeroCopy().transfer(stats, DEFAULT_SPEC)
        assert implicit.total_seconds < explicit.total_seconds

    def test_cache_reduces_time_and_bytes(self, dataset, stats):
        cache = make_tiered_cache("degree", dataset.graph, 0.4, 0.0,
                                  backing="host")
        plain = ZeroCopy().transfer(stats, DEFAULT_SPEC)
        cached = ZeroCopy().transfer(stats, DEFAULT_SPEC, cache=cache)
        assert cached.bytes_moved < plain.bytes_moved
        assert cached.total_seconds < plain.total_seconds

    def test_hybrid_between_dense_and_sparse(self, stats):
        """With a threshold of ~0, hybrid DMAs everything; with 1.0 it
        degenerates to zero-copy."""
        all_dma = HybridTransfer(threshold=1e-9).transfer(
            stats, DEFAULT_SPEC)
        all_zero = HybridTransfer(threshold=1.0).transfer(
            stats, DEFAULT_SPEC)
        pure_zero = ZeroCopy().transfer(stats, DEFAULT_SPEC)
        # Degenerate hybrid moves at least as many bytes as zero-copy
        # (whole blocks), and the threshold=1 variant matches zero-copy
        # bytes.
        assert all_dma.bytes_moved >= pure_zero.bytes_moved
        assert all_zero.bytes_moved == pure_zero.bytes_moved

    def test_hybrid_invalid_threshold(self):
        with pytest.raises(TransferError):
            HybridTransfer(threshold=0.0)

    def test_factory(self):
        assert make_transfer("extract-load").name == "extract-load"
        assert make_transfer("hybrid", threshold=0.3).threshold == 0.3
        with pytest.raises(TransferError):
            make_transfer("teleport")

    def test_stats_from_subgraph(self, dataset):
        sampler = NeighborSampler((5, 5))
        subgraph = sampler.sample(dataset.graph, dataset.train_ids[:64],
                                  np.random.default_rng(0))
        stats = BatchStats.from_subgraph(subgraph, dataset)
        assert stats.feature_bytes == (len(subgraph.input_nodes)
                                       * dataset.feature_dim * 4)
        assert stats.subgraph_edges == subgraph.total_edges
