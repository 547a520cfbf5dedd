"""Evaluation-subgraph caching and ``evaluate_model`` leaving the model
as it found it."""

import contextlib

import numpy as np
import pytest

from repro import TrainingConfig, Trainer, evaluate_model
from repro.graph import load_dataset
from repro.nn import build_model, no_grad
from repro.nn import tensor as tensor_module
from repro.perf import PERF, EvalSubgraphCache
from repro.sampling import NeighborSampler

from ..sampling._block_oracle import slow_paths


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.05)


@pytest.fixture(scope="module")
def model(dataset):
    return build_model("gcn", dataset.feature_dim, dataset.num_classes,
                       num_layers=2, hidden_dim=8,
                       rng=np.random.default_rng(0))


def evaluate(model, dataset, sampler, cache, seed=11, batch_size=64,
             ids=None):
    ids = dataset.val_ids if ids is None else ids
    return evaluate_model(model, dataset, ids, sampler,
                          np.random.default_rng(seed),
                          batch_size=batch_size, cache=cache,
                          cache_token=seed)


class TestEvalSubgraphCache:
    def test_replay_matches_fresh_sampling(self, dataset, model):
        sampler = NeighborSampler((4, 4))
        cache = EvalSubgraphCache()
        first = evaluate(model, dataset, sampler, cache)
        replayed = evaluate(model, dataset, sampler, cache)
        uncached = evaluate(model, dataset, sampler, None)
        assert first == replayed == uncached
        assert len(cache) == 1

    def test_hit_miss_counters(self, dataset, model):
        sampler = NeighborSampler((4, 4))
        cache = EvalSubgraphCache()
        before = PERF.snapshot()
        evaluate(model, dataset, sampler, cache)
        evaluate(model, dataset, sampler, cache)
        evaluate(model, dataset, sampler, cache)
        delta = PERF.delta(before)
        assert delta.get("eval_subgraph_misses") == 1
        assert delta.get("eval_subgraph_hits") == 2

    def test_invalidated_by_batch_size(self, dataset, model):
        sampler = NeighborSampler((4, 4))
        cache = EvalSubgraphCache()
        evaluate(model, dataset, sampler, cache, batch_size=64)
        evaluate(model, dataset, sampler, cache, batch_size=32)
        assert len(cache) == 2

    def test_invalidated_by_sampler_and_seed_and_ids(self, dataset, model):
        cache = EvalSubgraphCache()
        evaluate(model, dataset, NeighborSampler((4, 4)), cache)
        evaluate(model, dataset, NeighborSampler((4, 3)), cache)
        evaluate(model, dataset, NeighborSampler((4, 4)), cache, seed=12)
        evaluate(model, dataset, NeighborSampler((4, 4)), cache,
                 ids=dataset.test_ids)
        assert len(cache) == 4

    def test_eviction_bound(self, dataset, model):
        sampler = NeighborSampler((4, 4))
        cache = EvalSubgraphCache(max_entries=2)
        for seed in range(4):
            evaluate(model, dataset, sampler, cache, seed=seed)
        assert len(cache) == 2

    def test_trainer_replays_eval_batches(self, dataset):
        config = TrainingConfig(epochs=3, batch_size=128, fanout=(4, 4),
                                num_workers=1, partitioner="hash", seed=0)
        before = PERF.snapshot()
        Trainer(dataset, config).run()
        delta = PERF.delta(before)
        # Epoch 0 misses; epochs 1-2 replay. The test split keys apart.
        assert delta.get("eval_subgraph_hits", 0) >= 2
        # Re-sampling every epoch (``evaluate_model(cache=None)``, the
        # oracle's slow path) reaches the same accuracies.
        cached = Trainer(dataset, config).run()
        with slow_paths():
            before = PERF.snapshot()
            resampled = Trainer(dataset, config).run()
        assert PERF.delta(before).get("eval_subgraph_hits", 0) == 0
        assert cached.curve.val_accuracies \
            == resampled.curve.val_accuracies
        assert cached.test_accuracy == resampled.test_accuracy


class TestEvaluateModelMode:
    def test_restores_eval_mode(self, dataset, model):
        """There is no train / eval mode: the one switch is the tape
        flag.  Evaluating must leave it, and the dropout rng, as they
        were — inside ``no_grad`` or not."""
        sampler = NeighborSampler((4, 4))
        rng_before = model.rng_state()
        for outer in (no_grad, contextlib.nullcontext):
            with outer():
                before = tensor_module._taping
                evaluate(model, dataset, sampler, None)
                assert tensor_module._taping is before
            assert tensor_module._taping
            assert model.rng_state() == rng_before
