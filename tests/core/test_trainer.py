"""Integration tests for the high-level Trainer."""

import numpy as np
import pytest

from repro.core import (Trainer, TrainingConfig, TrainingCurve,
                        TrainingResult, adaptive_batch_training,
                        evaluate_model)
from repro.dist import EpochStats
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

    def test_breakdown_sums_left_to_right(self):
        """The step seconds are summed in epoch order from 0.0 on every
        python: a compensated sum (the builtin from 3.12) makes the
        batch-preparation total 1.0000000000000002 here, and its share
        0.5000000000000001."""
        def epoch(bp, dt):
            return EpochStats(loss=0.0, epoch_seconds=bp + dt,
                              bp_seconds=bp, dt_seconds=dt,
                              nn_seconds=0.0, allreduce_seconds=0.0,
                              num_steps=1, involved_vertices=0,
                              involved_edges=0, remote_feature_bytes=0,
                              batch_size=1)
        result = TrainingResult(
            curve=TrainingCurve(), test_accuracy=0.0,
            partition_seconds=0.0, partition_method="hash",
            epoch_stats=[epoch(1.0, 1.0), epoch(1e-16, 0.0),
                         epoch(1e-16, 0.0)])
        assert result.step_breakdown() == {
            "batch_preparation": 0.5, "data_transferring": 0.5,
            "nn_computation": 0.0}


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
