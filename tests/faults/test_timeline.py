"""One compiled fault timeline serves both clocks.

A :class:`FaultPlan` compiles its events once; the training engine
reads it at integer epochs (through its :class:`FaultInjector`) and
the fleet reads it at simulated seconds (``FleetEngine.schedule``).
Over generated plans, epoch ``e`` and second ``e`` must see equal
crashes and bit-equal multipliers, and overlapping windows must
multiply in the timeline's sorted order on both.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.dist import SyncEngine
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.fleet import FleetEngine
from repro.nn import Adam, build_model
from repro.partition import HashPartitioner
from repro.sampling import NeighborSampler
from repro.transfer import DEFAULT_SPEC, ZeroCopy

WORKERS = 4
HORIZON = 8


@pytest.fixture(scope="module")
def cluster():
    dataset = load_dataset("ogb-arxiv", scale=0.1)
    partition = HashPartitioner().partition(
        dataset.graph, WORKERS, split=dataset.split,
        rng=np.random.default_rng(0))
    model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                        rng=np.random.default_rng(1))
    return dataset, partition, model


def training_engine(cluster, plan):
    dataset, partition, model = cluster
    return SyncEngine(dataset, partition, NeighborSampler((3, 3)), model,
                      Adam(model.parameters(), lr=0.01), spec=DEFAULT_SPEC,
                      transfer=ZeroCopy(), injector=FaultInjector(plan))


def fleet_engine(cluster, plan):
    dataset, partition, model = cluster
    return FleetEngine(dataset, model, partition=partition, mode="sampled",
                       schedule=plan)


def sorted_product(events, kind, t, worker=None):
    """The oracle: ``worker``'s active windows of ``kind`` multiplied
    in the order of their ``(start, end, magnitude)``."""
    windows = sorted((e.epoch, e.epoch + e.duration, e.magnitude)
                     for e in events
                     if e.kind == kind and e.worker == worker)
    return math.prod([magnitude for start, end, magnitude in windows
                      if start <= t < end], start=1.0)


# Worker 0 never crashes, so a training cluster always survives.
_events = st.one_of(
    st.builds(FaultEvent, kind=st.just("crash"),
              epoch=st.integers(0, HORIZON), worker=st.integers(1, 3),
              duration=st.integers(1, 3)),
    st.builds(FaultEvent, kind=st.just("straggler"),
              epoch=st.integers(0, HORIZON), worker=st.integers(0, 3),
              duration=st.integers(1, 4),
              magnitude=st.sampled_from([1.1, 1.3, 2.3, 4.0])),
    st.builds(FaultEvent, kind=st.just("slowlink"),
              epoch=st.integers(0, HORIZON), duration=st.integers(1, 4),
              magnitude=st.sampled_from([0.9, 0.7, 0.3, 0.25])))
plans = st.builds(FaultPlan, events=st.lists(_events, max_size=8),
                  seed=st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(plan=plans)
def test_both_clocks_read_one_timeline(cluster, plan):
    training = training_engine(cluster, plan)
    fleet = fleet_engine(cluster, plan)
    assert fleet.schedule is plan
    crashes = fleet.schedule.crashes
    assert list(crashes) == sorted(crashes)
    assert sorted(crashes) == sorted(
        (float(e.epoch), e.worker, float(e.duration))
        for e in plan if e.kind == "crash")

    for epoch in range(HORIZON + 4):
        training._begin_epoch_faults(epoch)
        dead = {w.worker_id for w in training.workers if not w.alive}
        assert dead == {worker for time, worker, _ in crashes
                        if time <= epoch}
        _, bandwidth = fleet.schedule.multipliers(None, float(epoch))
        assert bandwidth == sorted_product(plan, "slowlink", epoch)
        assert training._epoch_spec.network_bandwidth \
            == DEFAULT_SPEC.network_bandwidth * bandwidth
        for worker in training.alive_workers:
            wid = worker.worker_id
            straggle, slowlink = fleet.schedule.multipliers(
                wid, float(epoch))
            assert slowlink == bandwidth
            assert straggle == sorted_product(plan, "straggler", epoch,
                                              worker=wid)
            assert training._stage_multipliers.get(wid, 1.0) == straggle


def test_three_overlapping_windows_pin_the_product_order(cluster):
    # (1.1 * 2.3) * 1.3 != (1.1 * 1.3) * 2.3 in binary64: the order in
    # which overlapping windows multiply is visible in the bits.
    assert (1.1 * 2.3) * 1.3 != (1.1 * 1.3) * 2.3
    plan = FaultPlan.parse("straggler@0+3:w1:x1.1,straggler@2+3:w1:x2.3,"
                           "straggler@1+3:w1:x1.3")
    # Sorted by (start, end, ...): 1.1, then 1.3, then 2.3 — not the
    # spec's order.
    expected = (1.1 * 1.3) * 2.3
    assert plan.multipliers(1, 2) == (expected, 1.0)
    assert fleet_engine(cluster, plan).schedule.multipliers(1, 2.0) \
        == (expected, 1.0)
    training = training_engine(cluster, plan)
    training._begin_epoch_faults(2)
    assert training._stage_multipliers[1] == expected


def test_flaky_windows_compose_in_sorted_order():
    plan = FaultPlan.parse("flaky@1+2:w0:p0.3,flaky@0+3:w0:p0.7,"
                           "flaky@0+2:w0:p0.1")
    expected = 1.0 - (1.0 - 0.1) * (1.0 - 0.7) * (1.0 - 0.3)
    injector = FaultInjector(plan)
    injector.begin_epoch(1)
    assert injector.fetch_failure_prob(0) == expected
    assert plan.failure_prob(0, 1) == expected
    assert plan.failure_prob(1, 1) == 0.0
