"""End-to-end proof that the perf fast paths change time, not math:
for a fixed config and seed, training as shipped is bit-for-bit
identical to training on the retired slow paths (the oracles in
``tests/sampling/_block_oracle.py``, monkeypatched in)."""

import pytest

from repro import Trainer, TrainingConfig
from repro.graph import load_dataset

from ..sampling._block_oracle import slow_paths


@pytest.fixture(scope="module")
def runs():
    dataset = load_dataset("ogb-arxiv", scale=0.05)

    def run():
        config = TrainingConfig(epochs=3, batch_size=128, fanout=(4, 4),
                                num_workers=2, partitioner="hash",
                                seed=7)
        return Trainer(dataset, config).run()

    fast = run()
    with slow_paths():
        slow = run()
    return fast, slow


class TestFastPathEquivalence:
    def test_loss_curve_identical(self, runs):
        fast, slow = runs
        assert fast.curve.losses == slow.curve.losses

    def test_accuracy_identical(self, runs):
        fast, slow = runs
        assert fast.curve.val_accuracies == slow.curve.val_accuracies
        assert fast.test_accuracy == slow.test_accuracy

    def test_simulated_time_identical(self, runs):
        fast, slow = runs
        assert fast.curve.epoch_seconds == slow.curve.epoch_seconds
        assert [s.bp_seconds for s in fast.epoch_stats] \
            == [s.bp_seconds for s in slow.epoch_stats]
        assert [s.dt_seconds for s in fast.epoch_stats] \
            == [s.dt_seconds for s in slow.epoch_stats]

    def test_perf_profile_attached(self, runs):
        fast, slow = runs
        assert fast.perf  # run-level measured profile
        assert "block_assembly_seconds" in fast.perf
        # ... and the comparison run really took the slow paths.
        for counter in ("block_assembly_calls", "agg_matrix_hits",
                        "eval_subgraph_hits"):
            assert counter in fast.perf and counter not in slow.perf
        for stats in fast.epoch_stats:
            assert stats.perf is not None
