"""Unit tests for the experiment repeat helper."""

import pytest

from repro.core import RepeatedResult, TrainingConfig, repeat
from repro.errors import TrainingError
from repro.graph import load_dataset


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


@pytest.fixture(scope="module")
def config():
    return TrainingConfig(epochs=2, batch_size=128, fanout=(4, 4),
                          num_workers=2, partitioner="hash")


class TestRepeat:
    def test_aggregates_over_seeds(self, dataset, config):
        aggregate = repeat(dataset, config, seeds=(0, 1))
        assert len(aggregate.results) == 2
        mean, std = aggregate.best_val_accuracy
        assert 0.0 <= mean <= 1.0
        assert std >= 0.0

    def test_different_seeds_differ(self, dataset, config):
        aggregate = repeat(dataset, config, seeds=(0, 1, 2))
        accs = [r.best_val_accuracy for r in aggregate.results]
        assert len(set(accs)) > 1

    def test_convergence_counts_reached(self, dataset, config):
        aggregate = repeat(dataset, config, seeds=(0, 1))
        mean, std, reached = aggregate.convergence_time(0.5)
        assert reached <= 2
        if reached:
            assert mean > 0

    def test_summary_format(self, dataset, config):
        aggregate = repeat(dataset, config, seeds=(0,))
        summary = aggregate.summary()
        assert summary["runs"] == 1
        assert "±" in summary["best_val_acc"]

    def test_empty_inputs_rejected(self, dataset, config):
        with pytest.raises(TrainingError):
            repeat(dataset, config, seeds=())
        with pytest.raises(TrainingError):
            RepeatedResult([])
