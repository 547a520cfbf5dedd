"""Every request of a fleet run ends with exactly one fate, and the
report's counts are reads of the fate map.

A fleet run keeps what it knows of each request in per-run maps from
request id to an int (``_FleetRun.fate``, and under hedging the replica
its first copy was ``routed`` to), not in a container per request.  A
fate is answered, or
the reason the request's last copy was lost: dropped because no replica
could take it (unroutable) or its crash re-routes ran out (retry
budget), or rejected by a full queue.  Over generated crash schedules,
replication factors, hedge policies, retry budgets and queue bounds,
on traces numbered ``0..n-1`` in order and otherwise (gapped, shuffled,
float and mixed int / float ids):

* the ledger answers each request at most once, and every request is
  either answered or lost, never both and never neither; a hedged run
  writes ``ANSWERED`` for exactly the answered ones, an unhedged run
  for none (the ledger is its record);
* ``completed``, ``rejected``, ``dropped`` and ``retry_budget_drops``
  are the fate counts, and a hedged request is hedged at most once;
* ``dropped_request_ids`` is the dropped fates in the order the
  requests were first lost — the order of the ``request_id -> why``
  dict the run kept before the fate map, replayed here from the calls
  to ``_lose``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.core.config import make_partitioner
from repro.fleet import FleetEngine, ResiliencePolicy, RoutingPolicy
from repro.fleet.engine import (ANSWERED, PENDING, QUEUE_FULL,
                                RETRY_BUDGET, UNROUTABLE, _FleetRun)
from repro.fleet.resilience import HedgePolicy
from repro.nn import build_model, no_grad
from repro.serve import (BatchPolicy, InferenceRequest,
                         LayerwiseEmbeddings, LoadGenerator)

LOST = (UNROUTABLE, RETRY_BUDGET, QUEUE_FULL)


@pytest.fixture(scope="module")
def world():
    data = load_dataset("ogb-arxiv", scale=0.15)
    model = build_model("gcn", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(7))
    embeddings = LayerwiseEmbeddings(model, data.graph, data.features)
    partitions = {k: make_partitioner("hash").partition(
        data.graph, k, split=data.split, rng=np.random.default_rng(0))
        for k in (2, 3)}
    return data, model, embeddings, partitions


DOWN = st.sampled_from([2e-4, 1e-3, 5e-3, 5e-2])


@st.composite
def crash_schedules(draw):
    """``[(start, offset, down, replica)]``: a crash at ``start`` of the
    trace's span plus ``offset`` seconds, down for ``down`` seconds, of
    ``replica`` modulo the fleet size (``None``: every replica).  Up to
    four crashes anywhere; sometimes the whole fleet at once (so
    requests find no replica to take them); sometimes a cascade, a
    second replica ``gap`` after the first — about when the detector
    (~1 ms) or the retry timeout (10 ms) re-routes the orphans the
    first made, so that they bounce again and run out of retries."""
    crashes = draw(st.lists(
        st.tuples(st.integers(0, 8).map(lambda tenths: tenths / 10),
                  st.just(0.0), DOWN, st.integers(0, 2)),
        max_size=4))
    if draw(st.booleans()):
        crashes.append((draw(st.integers(0, 8)) / 10, 0.0, draw(DOWN),
                        None))
    if draw(st.booleans()):
        start = draw(st.integers(2, 5)) / 10
        gap = draw(st.sampled_from([9e-4, 1.2e-3, 1.1e-2]))
        first = draw(st.integers(0, 2))
        crashes += [(start, 0.0, 5e-2, first),
                    (start, gap, 5e-2, first + 1)]
    return crashes


HEDGES = st.one_of(st.none(), st.builds(
    HedgePolicy, delay_quantile=st.sampled_from([50.0, 95.0]),
    min_delay=st.sampled_from([1e-5, 5e-4]),
    min_observations=st.integers(1, 30)))


def fleet_run(world, replicas, crashes, replication, hedge, retry_budget,
              detector, max_queue, max_wait, rate, numbering):
    """``(trace, run, report, lost_calls)`` of one run: ``lost_calls``
    is the ``request_id -> why`` dict the run kept before its fate
    map, rebuilt from its ``_lose`` calls."""
    data, model, embeddings, partitions = world
    trace = LoadGenerator(data.test_ids, rate=rate, num_requests=300,
                          seed=5, skew=0.8).generate()
    # "gapped": in order and ending at n - 1, but request 0 is -1;
    # "shuffled": out of order, and sparse; "floats": 0.0, 1.0, ...;
    # "mixed": 0, 1.0, 2.7, 3, 4.0, 5.7, ...
    renumber = {"dense": lambda rid: rid,
                "gapped": lambda rid: rid or -1,
                "shuffled": lambda rid: 7 + 3 * (37 * rid % len(trace)),
                "floats": float,
                "mixed": lambda rid: (rid, float(rid), rid + 0.7)[rid % 3],
                }[numbering]
    trace = [InferenceRequest(renumber(r.request_id), r.vertex, r.arrival)
             for r in trace]
    span = trace[-1].arrival
    schedule = ",".join(
        f"crash@{start * span + offset:.7f}+{down}:w{replica % replicas}"
        for start, offset, down, crashed in crashes
        for replica in ([crashed] if crashed is not None
                        else range(replicas))) or None
    resilience = ResiliencePolicy(hedge=hedge, retry_budget=retry_budget)
    if not detector:
        resilience = ResiliencePolicy(detector=None, breaker=None,
                                      hedge=hedge,
                                      retry_budget=retry_budget)
    engine = FleetEngine(
        data, model, partition=partitions[replicas], mode="precomputed",
        embeddings=embeddings,
        policy=BatchPolicy(max_batch_size=8, max_wait=max_wait),
        max_queue=max_queue, seed=1, schedule=schedule,
        routing=RoutingPolicy(spill_threshold=16),
        replication=min(replication, replicas), resilience=resilience)
    run = _FleetRun(engine, trace)
    lose, lost_calls = run._lose, {}

    def recording_lose(request_id, why):
        answered = {r.request.request_id for r in run.loop.responses}
        if request_id not in answered:
            lost_calls[request_id] = why
        lose(request_id, why)

    run._lose = recording_lose
    with no_grad():
        run.loop.run(run.handlers())
    report = engine._report(run)
    answered = {r.request.request_id for r in report.responses}
    return trace, run, report, {rid: why for rid, why
                                in lost_calls.items()
                                if rid not in answered}


#: Runs the generated space reaches too rarely to rely on: orphans of a
#: two-replica cascade running out of retries, unhedged and hedged; a
#: hedged request lost on one copy (a full queue) and answered on the
#: other; and hedged requests lost on both copies with other requests
#: lost in between (a replica's crash, then the whole fleet's), once
#: with ids that mix ints and floats; and a hedged request re-routed
#: off a crashed replica, whose second admission must not arm a second
#: hedge.
CASCADE = [(0.2, 0.0, 5e-2, 0), (0.2, 9e-4, 5e-2, 1)]
FEW = dict(replicas=2, replication=1, retry_budget=1, detector=True,
           max_wait=2e-3, rate=2e4)


@settings(max_examples=60, deadline=None)
@example(crashes=CASCADE, hedge=None, max_queue=None,
         numbering="gapped", **FEW)
@example(crashes=[(0.2, 0.0, 5e-3, 0), (0.2, 9e-4, 5e-3, 1)],
         hedge=HedgePolicy(min_delay=1e-5, min_observations=1),
         max_queue=None, numbering="dense", **FEW)
@example(crashes=[(0.2, 0.0, 1e-3, 0)],
         hedge=HedgePolicy(delay_quantile=50.0, min_delay=1e-5,
                           min_observations=1),
         max_queue=4, numbering="shuffled", **FEW)
@example(crashes=[(0.1, 0.0, 1e-3, 0), (0.5, 0.0, 1e-3, None)],
         hedge=HedgePolicy(delay_quantile=50.0, min_delay=1e-5,
                           min_observations=1),
         max_queue=None, numbering="dense",
         **dict(FEW, max_wait=2e-4))
@example(crashes=[(0.1, 0.0, 1e-3, 0), (0.5, 0.0, 1e-3, None)],
         hedge=HedgePolicy(delay_quantile=50.0, min_delay=1e-5,
                           min_observations=1),
         max_queue=None, numbering="mixed",
         **dict(FEW, max_wait=2e-4))
@example(replicas=3, replication=1, retry_budget=2, detector=True,
         crashes=[(0.8, 0.0, 2e-4, 1), (0.8, 0.0, 5e-2, 2),
                  (0.3, 0.0, 5e-2, 2), (0.1, 0.0, 5e-3, 2)],
         hedge=HedgePolicy(delay_quantile=50.0, min_delay=5e-4,
                           min_observations=6),
         max_queue=None, max_wait=2e-3, rate=2e4, numbering="dense")
@given(replicas=st.sampled_from([2, 3]),
       crashes=crash_schedules(),
       replication=st.integers(1, 3),
       hedge=HEDGES,
       retry_budget=st.sampled_from([1, 2, 3, math.inf]),
       detector=st.booleans(),
       max_queue=st.sampled_from([None, 4, 32]),
       max_wait=st.sampled_from([2e-4, 2e-3]),
       rate=st.sampled_from([2e4, 6e4, 2e5]),
       numbering=st.sampled_from(["dense", "gapped", "shuffled",
                                  "floats", "mixed"]))
def test_each_request_ends_with_one_fate(world, **config):
    trace, run, report, lost_calls = fleet_run(world, **config)
    ids = [r.request.request_id for r in report.responses]
    answered = set(ids)
    assert len(ids) == len(answered), "a request answered twice"
    fates = {r.request_id: run.fate.get(r.request_id, PENDING)
             for r in trace}
    assert answered <= set(fates)
    assert set(run.fate) <= set(fates), "a fate for no request"
    hedged = config["hedge"] is not None
    for rid, fate in fates.items():
        if rid in answered:
            assert fate == (ANSWERED if hedged else PENDING), rid
        else:
            assert fate in LOST, (rid, fate)

    counts = {code: sum(1 for fate in fates.values() if fate == code)
              for code in (PENDING, ANSWERED) + LOST}
    assert report.completed == len(answered)
    assert report.rejected == sum(counts[code] for code in LOST)
    assert report.dropped == counts[UNROUTABLE] + counts[RETRY_BUDGET]
    if report.resilience is not None:
        assert report.resilience["retry_budget_drops"] \
            == counts[RETRY_BUDGET]
    if hedged:
        # Only a request's first copy arms its hedge: one at most.
        assert report.resilience["hedges_launched"] \
            == len(run.hedge_target)

    dropped = [rid for rid, why in lost_calls.items()
               if why != QUEUE_FULL]
    assert report.dropped_request_ids == dropped
    assert dropped == [rid for rid in lost_calls
                       if fates[rid] in (UNROUTABLE, RETRY_BUDGET)]
    assert {rid: fates[rid] for rid in lost_calls} == lost_calls
    assert report.rejected == len(lost_calls)
