"""Full-graph training on the Trainer equals the harness it replaced.

``_fullbatch_oracle.py`` keeps the full-batch engine, its private GCN
class and the hand-rolled epoch loop as they were before full-graph
training became a batch policy of :class:`~repro.core.Trainer`.  Seeded
alike, the two must agree bit for bit on every per-epoch number; a
resumed stale run must reproduce the uninterrupted curve.
"""

import numpy as np
import pytest

from repro import Trainer, TrainingConfig
from repro.dist import FullGraph
from repro.faults import Checkpointer
from repro.graph import load_dataset
from repro.nn import build_model

from ._fullbatch_oracle import FullGraphGCN, oracle_run

STAT_FIELDS = ("loss", "epoch_seconds", "dt_seconds", "nn_seconds",
               "allreduce_seconds", "remote_feature_bytes")


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


def config(staleness, partitioner="metis-ve", num_workers=3, epochs=8):
    return TrainingConfig(sampler=FullGraph(staleness),
                          partitioner=partitioner,
                          num_workers=num_workers, hidden_dim=32,
                          epochs=epochs, seed=5)


def per_epoch(stats):
    return [tuple(getattr(s, name) for name in STAT_FIELDS)
            for s in stats]


def test_same_initial_weights(dataset):
    cfg = config(0)
    ours = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                       num_layers=cfg.num_layers, hidden_dim=cfg.hidden_dim,
                       rng=cfg.rng(salt=2), dropout=cfg.dropout)
    theirs = FullGraphGCN(dataset.feature_dim, cfg.hidden_dim,
                          dataset.num_classes, cfg.num_layers,
                          cfg.rng(salt=2), dropout=cfg.dropout)
    ours, theirs = ours.state_dict(), theirs.state_dict()
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("num_workers", [1, 3])
@pytest.mark.parametrize("partitioner", ["hash", "metis-ve"])
@pytest.mark.parametrize("staleness", [0, 1, 3])
def test_trainer_equals_oracle_loop(dataset, staleness, partitioner,
                                    num_workers):
    cfg = config(staleness, partitioner, num_workers)
    result = Trainer(dataset, cfg).run()
    partition = cfg.build_partitioner().partition(
        dataset.graph, num_workers, split=dataset.split,
        rng=cfg.rng(salt=1))
    stats, accuracies, _engine = oracle_run(cfg, dataset, partition,
                                            staleness)
    assert per_epoch(result.epoch_stats) == per_epoch(stats)
    assert result.curve.val_accuracies == accuracies
    assert result.curve.batch_sizes == [len(dataset.train_ids)] * cfg.epochs


def test_stale_resume_is_bit_exact(dataset, tmp_path):
    """Staleness 3 refreshes at epochs 0, 4 and 8 (counting from 0): a
    checkpoint after five epochs falls mid-cycle, so epochs 5 to 7
    aggregate boundary values only the carried stale stores hold."""
    full = Trainer(dataset, config(3, epochs=10)).run()

    ckpt = Checkpointer(tmp_path / "stale.ckpt")
    Trainer(dataset, config(3, epochs=5)).run(checkpointer=ckpt)
    resumed = Trainer(dataset, config(3, epochs=10)).run(
        checkpointer=ckpt, resume=True)

    for name in ("val_accuracies", "losses", "epoch_seconds",
                 "batch_sizes"):
        assert getattr(resumed.curve, name) == getattr(full.curve, name)
    assert per_epoch(resumed.epoch_stats) == per_epoch(full.epoch_stats)
    assert resumed.test_accuracy == full.test_accuracy
