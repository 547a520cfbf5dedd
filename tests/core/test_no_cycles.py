"""No workload leaves cyclic garbage.

With the cycle collector off, a training run, a sampled serving run and
a hedged crash-storm fleet run must free everything they drop by
reference counting alone: ``gc.collect()`` afterwards finds nothing.
Cyclic garbage is memory the process holds until the collector happens
to run, so a run's peak would depend on the collector's schedule.
"""

import gc

import numpy as np
import pytest

from repro import load_dataset
from repro.core import Trainer
from repro.core.config import TrainingConfig, make_partitioner
from repro.fleet import FleetEngine, ReplicaRecovery, ResiliencePolicy
from repro.fleet.chaos import crash_storm
from repro.nn import build_model
from repro.serve import (BatchPolicy, LayerwiseEmbeddings, LoadGenerator,
                         ServeEngine)


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.2, seed=3)


def cyclic_garbage(run):
    """Objects the collector finds after ``run()`` and its result are
    dropped, the collector off throughout."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("model", ["gcn", "graphsage", "gat"])
def test_training_leaves_no_cycles(data, model):
    config = TrainingConfig(model=model, epochs=2, num_workers=2,
                            batch_size=64, fanout=(5, 5),
                            partitioner="hash", seed=3)
    assert cyclic_garbage(lambda: Trainer(data, config).run()) == 0


def test_sampled_serving_leaves_no_cycles(data):
    model = build_model("graphsage", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(3))
    trace = LoadGenerator(data.test_ids, rate=2000.0, num_requests=200,
                          seed=3, skew=0.8).generate()

    def run():
        ServeEngine(data, model, mode="sampled",
                    policy=BatchPolicy(max_batch_size=8, max_wait=0.0005),
                    fanout=(10, 10), cache_policy="lru", cache_ratio=0.1,
                    seed=3).run(trace)

    assert cyclic_garbage(run) == 0


def test_hedged_crash_storm_fleet_leaves_no_cycles(data, tmp_path):
    model = build_model("gcn", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(3))
    partition = make_partitioner("metis-v").partition(
        data.graph, 4, split=data.split, rng=np.random.default_rng(3))
    embeddings = LayerwiseEmbeddings(model, data.graph, data.features)
    trace = LoadGenerator(data.test_ids, rate=100000.0, num_requests=600,
                          seed=3, skew=0.8).generate()
    span = trace[-1].arrival

    def run():
        report = FleetEngine(
            data, model, partition=partition, mode="precomputed",
            policy=BatchPolicy(max_batch_size=16, max_wait=0.0005),
            max_queue=512, cache_policy="lfu", cache_ratio=0.1,
            warm_ratio=0.1, seed=3, embeddings=embeddings,
            schedule=crash_storm(4, start=0.25 * span, down=0.35 * span,
                                 count=2, spacing=0.05 * span),
            replication=2, resilience=ResiliencePolicy(),
            recovery=ReplicaRecovery(tmp_path,
                                     snapshot_interval=0.1 * span),
        ).run(trace)
        assert report.resilience["hedges_launched"] > 0

    assert cyclic_garbage(run) == 0
