"""Unit tests for the GPU memory footprint model."""

import pytest

from repro.errors import TransferError
from repro.transfer import DEFAULT_SPEC, estimate_batch_memory, max_batch_size


class TestEstimates:
    def test_components_positive(self):
        estimate = estimate_batch_memory(512, (25, 10), 602)
        assert estimate.feature_bytes > 0
        assert estimate.activation_bytes > 0
        assert estimate.topology_bytes > 0
        assert estimate.model_bytes > 0
        assert estimate.total_bytes == (
            estimate.feature_bytes + estimate.activation_bytes
            + estimate.topology_bytes + estimate.model_bytes)

    def test_monotone_in_batch_size(self):
        small = estimate_batch_memory(64, (10, 10), 128)
        large = estimate_batch_memory(1024, (10, 10), 128)
        assert large.total_bytes > small.total_bytes

    def test_monotone_in_fanout(self):
        narrow = estimate_batch_memory(256, (5, 5), 128)
        wide = estimate_batch_memory(256, (25, 25), 128)
        assert wide.total_bytes > narrow.total_bytes

    def test_vertex_cap_limits_expansion(self):
        unbounded = estimate_batch_memory(1024, (25, 25), 128)
        capped = estimate_batch_memory(1024, (25, 25), 128,
                                       num_vertices=2000)
        assert capped.total_bytes < unbounded.total_bytes

    def test_invalid_args(self):
        with pytest.raises(TransferError):
            estimate_batch_memory(0, (5,), 16)
        with pytest.raises(TransferError):
            estimate_batch_memory(8, (), 16)
        with pytest.raises(TransferError):
            estimate_batch_memory(8, (5,), 16, dedup_factor=0.0)

    def test_fits_respects_headroom(self):
        estimate = estimate_batch_memory(512, (10, 10), 128)
        tiny_gpu = DEFAULT_SPEC.with_overrides(
            gpu_memory=estimate.total_bytes)
        assert not estimate.fits(tiny_gpu, headroom=0.1)
        assert estimate.fits(tiny_gpu, headroom=0.0)


class TestMaxBatchSize:
    def test_fits_what_it_claims(self):
        best = max_batch_size(DEFAULT_SPEC, (25, 10), 602)
        assert best >= 1
        estimate = estimate_batch_memory(best, (25, 10), 602)
        assert estimate.fits(DEFAULT_SPEC)

    def test_next_size_does_not_fit(self):
        small_gpu = DEFAULT_SPEC.with_overrides(gpu_memory=2_000_000_000)
        best = max_batch_size(small_gpu, (25, 10), 602)
        over = estimate_batch_memory(best + max(1, best // 16),
                                     (25, 10), 602)
        assert best == 0 or not over.fits(small_gpu) or best >= 1_048_576 // 2

    def test_bigger_gpu_bigger_batches(self):
        small = max_batch_size(
            DEFAULT_SPEC.with_overrides(gpu_memory=1_000_000_000),
            (25, 10), 602)
        large = max_batch_size(
            DEFAULT_SPEC.with_overrides(gpu_memory=32_000_000_000),
            (25, 10), 602)
        assert large > small

    def test_zero_when_nothing_fits(self):
        doll_gpu = DEFAULT_SPEC.with_overrides(gpu_memory=1000)
        assert max_batch_size(doll_gpu, (25, 10), 602) == 0

    def test_paper_scale_sanity(self):
        """A T4 (16 GB) fits the paper's default batch 6000 at fanout
        (25, 10) on the widest features (602) — consistent with the
        paper actually running that configuration."""
        best = max_batch_size(DEFAULT_SPEC, (25, 10), 602,
                              num_vertices=233_000)
        assert best >= 6000
