"""Unit tests for TrainingConfig factories and TrainingCurve."""

import numpy as np
import pytest

from repro.batching import FixedBatchSize, PlateauAdaptiveBatchSize
from repro.core import (TrainingConfig, TrainingCurve, make_partitioner,
                        make_sampler)
from repro.core.config import make_cache
from repro.errors import TrainingError
from repro.graph import load_dataset
from repro.partition import (HashPartitioner, MetisPartitioner,
                             StreamBPartitioner, StreamVPartitioner)
from repro.sampling import (HybridSampler, NeighborSampler, RateSampler,
                            SubgraphSampler)
from repro.transfer import ExtractLoad


class TestFactories:
    def test_partitioner_names(self):
        assert isinstance(make_partitioner("hash"), HashPartitioner)
        assert isinstance(make_partitioner("metis-vet"), MetisPartitioner)
        assert make_partitioner("metis-vet").variant == "vet"
        assert isinstance(make_partitioner("stream-v"), StreamVPartitioner)
        assert isinstance(make_partitioner("stream-b"), StreamBPartitioner)

    def test_unknown_partitioner(self):
        with pytest.raises(TrainingError):
            make_partitioner("quantum")

    def test_sampler_names(self):
        assert isinstance(make_sampler("fanout", fanout=(5, 5)),
                          NeighborSampler)
        assert isinstance(make_sampler("rate", rate=0.2), RateSampler)
        assert isinstance(make_sampler("hybrid"), HybridSampler)
        assert isinstance(make_sampler("subgraph"), SubgraphSampler)

    def test_unknown_sampler(self):
        with pytest.raises(TrainingError):
            make_sampler("psychic")

    def test_cache_factory(self):
        dataset = load_dataset("ogb-arxiv", scale=0.25)
        assert make_cache(None, dataset, 0.5) is None
        assert make_cache("degree", dataset, 0.0) is None
        cache = make_cache("degree", dataset, 0.2)
        assert (cache.policy, cache.backing) == ("degree", "host")
        assert cache.residency() == {
            "hot": round(0.2 * dataset.num_vertices), "warm": 0}
        pres = make_cache("presample", dataset, 0.2,
                          sampler=NeighborSampler((3, 3)),
                          seeds=dataset.train_ids[:50],
                          rng=np.random.default_rng(0))
        assert (pres.policy, pres.backing) == ("presample", "host")
        # A warm tier (or lfu) means the out-of-core hierarchy.
        assert make_cache("degree", dataset, 0.2,
                          warm_ratio=0.1).backing == "disk"
        assert make_cache("lfu", dataset, 0.2).backing == "disk"

    def test_presample_cache_needs_sampler(self):
        dataset = load_dataset("ogb-arxiv", scale=0.25)
        with pytest.raises(TrainingError):
            make_cache("presample", dataset, 0.2)


class TestTrainingConfig:
    def test_defaults_match_paper(self):
        config = TrainingConfig()
        assert config.hidden_dim == 128
        assert config.fanout == (25, 10)
        assert config.num_workers == 4

    def test_build_schedule_from_int(self):
        schedule = TrainingConfig(batch_size=256).build_schedule()
        assert isinstance(schedule, FixedBatchSize)
        assert schedule.size(0) == 256

    def test_build_schedule_passthrough(self):
        adaptive = PlateauAdaptiveBatchSize(64, 512)
        config = TrainingConfig(batch_size=adaptive)
        assert config.build_schedule() is adaptive

    def test_build_components_passthrough(self):
        sampler = NeighborSampler((3, 3))
        transfer = ExtractLoad()
        partitioner = HashPartitioner()
        config = TrainingConfig(sampler=sampler, transfer=transfer,
                                partitioner=partitioner)
        assert config.build_sampler() is sampler
        assert config.build_transfer() is transfer
        assert config.build_partitioner() is partitioner

    def test_with_overrides_copies(self):
        config = TrainingConfig(epochs=5)
        other = config.with_overrides(epochs=9)
        assert config.epochs == 5 and other.epochs == 9

    def test_rng_deterministic(self):
        config = TrainingConfig(seed=7)
        assert (config.rng(1).integers(0, 1000)
                == config.rng(1).integers(0, 1000))


class TestTrainingCurve:
    def build(self):
        curve = TrainingCurve()
        for epoch, acc in enumerate([0.2, 0.5, 0.7, 0.69, 0.71]):
            curve.record(acc, 1.0 - acc, epoch_second=2.0,
                         wall_second=0.1, batch_size=64)
        return curve

    def test_best(self):
        curve = self.build()
        assert curve.best_accuracy == 0.71

    def test_cumulative_time(self):
        curve = self.build()
        assert curve.cumulative_seconds[-1] == pytest.approx(10.0)

    def test_time_to_accuracy(self):
        curve = self.build()
        assert curve.time_to_accuracy(0.5) == pytest.approx(4.0)
        assert curve.time_to_accuracy(0.99) is None

    def test_convergence_time(self):
        curve = self.build()
        # 0.98 * 0.71 = 0.696 -> first reached at epoch 2 (t=6).
        assert curve.convergence_time() == pytest.approx(6.0)

    def test_empty_curve_raises(self):
        with pytest.raises(TrainingError):
            TrainingCurve().best_accuracy

    def test_series_pairs(self):
        curve = self.build()
        series = curve.series()
        assert len(series) == 5
        assert series[0] == (2.0, 0.2)
