"""Integration tests for the high-level Trainer."""

import numpy as np
import pytest

from repro.core import (Trainer, TrainingConfig, adaptive_batch_training,
                        evaluate_model)
from repro.errors import TrainingError
from repro.graph import load_dataset
from repro.nn import build_model
from repro.nn import tensor as tensor_module
from repro.sampling import NeighborSampler


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.4)


@pytest.fixture(scope="module")
def quick_config():
    return TrainingConfig(epochs=6, batch_size=128, num_workers=2,
                          fanout=(5, 5), partitioner="hash", seed=1)


@pytest.fixture(scope="module")
def quick_result(dataset, quick_config):
    return Trainer(dataset, quick_config).run()


class TestTrainer:
    def test_learns_something(self, dataset, quick_result):
        chance = 1.0 / dataset.num_classes
        assert quick_result.best_val_accuracy > 5 * chance

    def test_curve_lengths(self, quick_result, quick_config):
        assert quick_result.curve.num_epochs == quick_config.epochs
        assert len(quick_result.epoch_stats) == quick_config.epochs

    def test_partition_metadata(self, quick_result):
        assert quick_result.partition_method == "hash"
        assert quick_result.partition_seconds >= 0

    def test_breakdown_shares(self, quick_result):
        shares = quick_result.step_breakdown()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in shares.values())

    def test_involved_totals_positive(self, quick_result):
        totals = quick_result.involved_totals()
        assert totals["vertices"] > 0 and totals["edges"] > 0

    def test_test_accuracy_sane(self, quick_result):
        assert 0.0 <= quick_result.test_accuracy <= 1.0

    def test_reproducible(self, dataset, quick_config):
        again = Trainer(dataset, quick_config).run()
        first = Trainer(dataset, quick_config).run()
        assert first.best_val_accuracy == again.best_val_accuracy
        assert np.allclose(first.curve.val_accuracies,
                           again.curve.val_accuracies)

    def test_early_stopping(self, dataset, quick_config):
        config = quick_config.with_overrides(epochs=30,
                                             early_stop_patience=2)
        result = Trainer(dataset, config).run()
        assert result.curve.num_epochs < 30

    def test_too_many_workers(self, dataset):
        with pytest.raises(TrainingError):
            Trainer(dataset,
                    TrainingConfig(num_workers=dataset.num_vertices + 1))

    def test_wall_seconds_recorded(self, quick_result):
        assert quick_result.total_wall_seconds > 0
        assert 0 <= quick_result.partitioning_time_share() < 1

    def test_gpu_memory_clamps_batch_size(self, dataset):
        """A tiny simulated GPU forces the paper's memory-driven batch
        sizing: the requested batch shrinks to what fits."""
        from repro.transfer import DEFAULT_SPEC
        tiny = DEFAULT_SPEC.with_overrides(gpu_memory=1_500_000)
        config = TrainingConfig(epochs=1, batch_size=100_000,
                                fanout=(10, 10), num_workers=1,
                                partitioner="hash", spec=tiny)
        result = Trainer(dataset, config).run()
        assert result.curve.batch_sizes[0] < 100

    def test_gpu_memory_enforcement_can_be_disabled(self, dataset):
        from repro.transfer import DEFAULT_SPEC
        tiny = DEFAULT_SPEC.with_overrides(gpu_memory=1_500_000)
        config = TrainingConfig(epochs=1, batch_size=640,
                                fanout=(10, 10), num_workers=1,
                                partitioner="hash", spec=tiny,
                                enforce_gpu_memory=False)
        result = Trainer(dataset, config).run()
        assert result.curve.batch_sizes[0] == 640

    def test_impossible_memory_raises(self, dataset):
        from repro.transfer import DEFAULT_SPEC
        doll = DEFAULT_SPEC.with_overrides(gpu_memory=1000)
        config = TrainingConfig(epochs=1, batch_size=64,
                                fanout=(10, 10), num_workers=1,
                                partitioner="hash", spec=doll)
        with pytest.raises(TrainingError):
            Trainer(dataset, config).run()


class TestEvaluate:
    def test_empty_ids(self, dataset):
        model = build_model("gcn", dataset.feature_dim,
                            dataset.num_classes,
                            rng=np.random.default_rng(0))
        assert evaluate_model(model, dataset, [], NeighborSampler((3, 3)),
                              np.random.default_rng(0)) == 0.0

    def test_restores_train_mode(self, dataset):
        """Training resumes taping after evaluation, and evaluation
        drew no dropout mask."""
        model = build_model("gcn", dataset.feature_dim,
                            dataset.num_classes,
                            rng=np.random.default_rng(0), dropout=0.5)
        rng_before = model.rng_state()
        evaluate_model(model, dataset, dataset.val_ids[:16],
                       NeighborSampler((3, 3)), np.random.default_rng(0))
        assert tensor_module._taping
        assert model.rng_state() == rng_before


class TestSweepAndAdaptive:
    def test_sweep_over_batch_sizes(self, dataset):
        config = TrainingConfig(epochs=2, num_workers=2, fanout=(4, 4),
                                partitioner="hash")
        results = {size: Trainer(dataset, config.with_overrides(
            batch_size=size)).run() for size in (64, 256)}
        assert set(results) == {64, 256}
        # Smaller batches -> more steps per epoch.
        assert (results[64].epoch_stats[0].num_steps
                > results[256].epoch_stats[0].num_steps)

    def test_adaptive_batch_training_grows(self, dataset):
        config = TrainingConfig(epochs=10, num_workers=2, fanout=(4, 4),
                                partitioner="hash")
        result = adaptive_batch_training(dataset, config, start_size=32,
                                         max_size=256, patience=1)
        sizes = result.curve.batch_sizes
        assert sizes[0] == 32
        assert max(sizes) > 32
