"""End-to-end proof that the perf fast paths change time, not math:
for a fixed config and seed, training as shipped is bit-for-bit
identical to training on the retired slow paths (the oracles in
``tests/sampling/_block_oracle.py``, monkeypatched in)."""

from collections import Counter

import pytest

import repro.sampling.base as base
import repro.sampling.layerwise as layerwise
import repro.sampling.subgraph as subgraph
from repro import Trainer, TrainingConfig
from repro.graph import load_dataset
from repro.nn import layers
from repro.sampling.block import build_block

from ..sampling._block_oracle import build_block_reference, slow_paths

#: The modules whose ``build_block`` name :func:`slow_paths` rebinds.
SAMPLER_MODULES = (base, layerwise, subgraph)


def memo_hits(operators):
    """Calls that returned an operator an earlier call already had
    (by identity; the list keeps every operator alive, so no id is
    reused)."""
    return len(operators) - len({id(operator) for operator in operators})


@pytest.fixture(scope="module")
def runs():
    dataset = load_dataset("ogb-arxiv", scale=0.05)

    def run():
        config = TrainingConfig(epochs=3, batch_size=128, fanout=(4, 4),
                                num_workers=2, partitioner="hash",
                                seed=7)
        operators = []
        build = layers.normalized_block_adjacency

        def spy(block, self_loops=True):
            operators.append(build(block, self_loops))
            return operators[-1]

        # Which block assembly each sampler call reached, keyed by the
        # function object the module name was bound to at the call.
        assembled = Counter()

        def assembly_spy(assemble):
            def wrapper(dst_nodes, edge_dst, edge_src):
                assembled[assemble] += 1
                return assemble(dst_nodes, edge_dst, edge_src)
            return wrapper

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(layers, "normalized_block_adjacency", spy)
            for module in SAMPLER_MODULES:
                patch.setattr(module, "build_block",
                              assembly_spy(module.build_block))
            result = Trainer(dataset, config).run()
        return result, memo_hits(operators), assembled

    fast = run()
    with slow_paths():
        slow = run()
    return fast, slow


class TestFastPathEquivalence:
    def test_loss_curve_identical(self, runs):
        (fast, *_), (slow, *_) = runs
        assert fast.curve.losses == slow.curve.losses

    def test_accuracy_identical(self, runs):
        (fast, *_), (slow, *_) = runs
        assert fast.curve.val_accuracies == slow.curve.val_accuracies
        assert fast.test_accuracy == slow.test_accuracy

    def test_simulated_time_identical(self, runs):
        (fast, *_), (slow, *_) = runs
        assert fast.curve.epoch_seconds == slow.curve.epoch_seconds
        assert [s.bp_seconds for s in fast.epoch_stats] \
            == [s.bp_seconds for s in slow.epoch_stats]
        assert [s.dt_seconds for s in fast.epoch_stats] \
            == [s.dt_seconds for s in slow.epoch_stats]

    def test_perf_profile_attached(self, runs):
        (fast, fast_hits, fast_built), (slow, slow_hits, slow_built) = runs
        assert fast.perf  # run-level measured profile
        assert "kernel_flops" in fast.perf
        # ... and the comparison run really took the slow paths: every
        # block assembled by the reference, no operator handed out
        # twice, no evaluation subgraph replayed.
        assert fast_built[build_block] > 0
        assert fast_built[build_block_reference] == 0
        assert slow_built[build_block_reference] > 0
        assert slow_built[build_block] == 0
        assert fast_hits > 0 and slow_hits == 0
        assert "eval_subgraph_hits" in fast.perf
        assert "eval_subgraph_hits" not in slow.perf
        for stats in fast.epoch_stats:
            assert stats.perf is not None
