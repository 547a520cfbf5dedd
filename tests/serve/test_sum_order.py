"""Report means and sums do not depend on the Python version.

From Python 3.12 the builtin ``sum`` compensates float sums (Neumaier),
so a report that summed with it would move bits that
``tests/golden/serving_runs.json`` pins: those were recorded with 3.11's
plain left-to-right addition.  The serving report spells that order
out — :func:`repro.perf.summarize`'s mean and
:func:`repro.perf.ordered_sum` — so every version gives 3.11's bits.
Ten ``0.1`` tell the two rules apart: left to right they sum to
``0.9999999999999999``, compensated (and exactly rounded) to ``1.0``.
"""

import math

import numpy as np
import pytest

from repro import load_dataset
from repro.core import make_partitioner
from repro.fleet import ReplicaServer, ShardMap
from repro.fleet.resilience import DetectorPolicy, FailureDetector
from repro.nn import build_model
from repro.perf import ordered_sum, summarize
from repro.serve.executor import BatchExecutor

TENTHS = [0.1] * 10
LEFT_TO_RIGHT_MEAN = 0.09999999999999999


def test_the_column_tells_the_two_rules_apart():
    assert ordered_sum(TENTHS) == 0.9999999999999999
    assert math.fsum(TENTHS) == 1.0


@pytest.mark.parametrize("column", [TENTHS, np.array(TENTHS)],
                         ids=["list", "array"])
def test_summarize_means_left_to_right(column):
    assert summarize(column)["mean"] == LEFT_TO_RIGHT_MEAN


def test_an_all_negative_zero_column_has_a_positive_mean():
    """``sum`` starts from ``0.0``, and ``0.0 + -0.0`` is ``0.0``."""
    for column in ([-0.0], [-0.0] * 3, np.array([-0.0, -0.0])):
        mean = summarize(column)["mean"]
        assert mean == 0.0 and math.copysign(1.0, mean) == 1.0
    assert math.copysign(1.0, ordered_sum([-0.0, -0.0])) == 1.0


def test_a_replica_report_means_left_to_right():
    data = load_dataset("ogb-arxiv", scale=0.15)
    model = build_model("gcn", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(7))
    part = make_partitioner("hash").partition(
        data.graph, 1, split=data.split, rng=np.random.default_rng(0))
    shards = ShardMap(part, data.graph)
    replica = ReplicaServer(0, shards, BatchExecutor(
        shards, 0, data, model, mode="precomputed"))
    replica.latencies.extend(TENTHS)
    assert replica.report().latency_mean == LEFT_TO_RIGHT_MEAN


def test_the_mean_detection_delay_sums_left_to_right():
    detector = FailureDetector(DetectorPolicy(), 1)
    detector.detection_delays.extend(TENTHS)
    assert detector.mean_detection_delay == LEFT_TO_RIGHT_MEAN
