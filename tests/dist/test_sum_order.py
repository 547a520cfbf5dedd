"""An epoch's summed seconds do not depend on the Python version.

``SyncEngine.run_epoch`` sums each worker's batch seconds into the
epoch's ``bp_seconds`` / ``dt_seconds`` / ``nn_seconds`` /
``fault_seconds``.  From Python 3.12 the builtin ``sum`` compensates
float sums, so those totals spell the order out with
:func:`repro.perf.ordered_sum`: left to right, 3.11's bits on every
version.  Ten ``0.1`` tell the rules apart — left to right
``0.9999999999999999``, compensated (``math.fsum``, or the builtin from
3.12) ``1.0`` — as in ``tests/serve/test_sum_order.py``.
"""

import math

import numpy as np
import pytest

from repro.dist import SyncEngine
from repro.dist.worker import BatchWork
from repro.graph import load_dataset
from repro.nn import Adam, build_model
from repro.partition import HashPartitioner
from repro.sampling import NeighborSampler
from repro.transfer import DEFAULT_SPEC, ZeroCopy

BATCHES = 10
LEFT_TO_RIGHT = 0.9999999999999999
SECONDS = ("bp_seconds", "dt_seconds", "nn_seconds", "fault_seconds")


class TenBatches:
    """A selector handing the one worker exactly ``BATCHES`` batches."""

    def batches(self, train_ids, batch_size, rng):
        return np.array_split(train_ids, BATCHES)


def tenth_of_a_second(worker, subgraph):
    """Every batch costs 0.1 s in each stage and counts one of each."""
    return BatchWork(seeds=1, sampled_edges=1, input_vertices=1,
                     remote_feature_bytes=1, remote_sample_requests=1,
                     bp_seconds=0.1, dt_seconds=0.1, nn_seconds=0.1,
                     retries=1, giveups=1, fault_seconds=0.1)


@pytest.fixture(scope="module")
def stats():
    dataset = load_dataset("ogb-arxiv", scale=0.15)
    partition = HashPartitioner().partition(
        dataset.graph, 1, split=dataset.split,
        rng=np.random.default_rng(0))
    model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                        rng=np.random.default_rng(1))
    engine = SyncEngine(dataset, partition, NeighborSampler((2, 2)),
                        model, Adam(model.parameters(), lr=0.003),
                        spec=DEFAULT_SPEC, transfer=ZeroCopy(),
                        selector=TenBatches())
    engine._batch_work = tenth_of_a_second
    return engine.run_epoch(64, np.random.default_rng(0), epoch=0)


def test_the_column_tells_the_two_rules_apart():
    tenths = [0.1] * BATCHES
    total = 0.0
    for value in tenths:
        total += value
    assert total == LEFT_TO_RIGHT
    assert math.fsum(tenths) == 1.0


def test_the_epoch_ran_ten_batches(stats):
    assert stats.num_steps == BATCHES


@pytest.mark.parametrize("field", SECONDS)
def test_epoch_seconds_sum_left_to_right(stats, field):
    assert getattr(stats, field) == LEFT_TO_RIGHT


@pytest.mark.parametrize("field", ["involved_vertices", "involved_edges",
                                   "remote_feature_bytes", "retries",
                                   "giveups"])
def test_epoch_counts_stay_exact_integers(stats, field):
    value = getattr(stats, field)
    assert value == BATCHES and type(value) is int
