"""Conservation laws of the serving event loop, over generated
configurations.

``ServeEngine`` and ``FleetEngine`` are configurations of one loop
(:mod:`repro.serve.loop`), so what the loop owns is asserted once and
checked on both: every offered request is accounted for exactly once,
no request id is answered twice, no answer precedes its arrival, a
node's completions never go backwards, and a run is a pure function of
its seed.  The fixed points are pinned in ``test_golden_runs.py``; this
file walks the space between them with a small example budget.

Every generated configuration is also run on the polling loop the
shipped one replaced (``_loop_oracle.py``) and must come out identical
— report and responses — and, like the whole suite, runs with
``FLAGS.sanitize`` on, under which the loop re-derives every node's
cached dispatch time every iteration (``test_ready_cache.py`` has the
directed cases and the mutations these two gates were checked against).
Every generated fleet configuration is run a third time on the
resilience handlers that re-asked every question per request
(``tests/fleet/_chaos_oracle.py``: every breaker polled, one
``response`` event per response, the hedge delay and a vertex's backup
holders recomputed on every read), and must again come out identical,
``resilience`` counters included.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.core.config import make_partitioner
from repro.fleet import (AutoscalePolicy, FleetEngine, ReplicaRecovery,
                         ResiliencePolicy, RoutingPolicy)
from repro.nn import build_model
from repro.perf import percentile
from repro.serve import (BatchPolicy, LayerwiseEmbeddings, LoadGenerator,
                         ServeEngine)

from ..fleet._chaos_oracle import chaos_oracle
from ._loop_oracle import polling_loop


@pytest.fixture(scope="module")
def world():
    data = load_dataset("ogb-arxiv", scale=0.15)
    model = build_model("gcn", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(7))
    embeddings = LayerwiseEmbeddings(model, data.graph, data.features)
    partitions = {
        (name, k): make_partitioner(name).partition(
            data.graph, k, split=data.split,
            rng=np.random.default_rng(0))
        for name in ("hash", "metis-v") for k in (1, 2, 3, 4)}
    return data, model, embeddings, partitions


def trace_for(data, rate, num_requests, seed):
    return LoadGenerator(data.test_ids, rate=rate,
                         num_requests=num_requests, seed=seed,
                         skew=0.8).generate()


def check_answers(trace, responses):
    """Exactly-once answers, causal and per-node monotone."""
    ids = [r.request.request_id for r in responses]
    assert len(ids) == len(set(ids)), "a request was answered twice"
    assert set(ids) <= {r.request_id for r in trace}
    assert all(r.completion >= r.request.arrival for r in responses)
    last = {}
    for r in responses:     # list order is per-node dispatch order
        assert r.completion >= last.get(r.replica, 0.0)
        last[r.replica] = r.completion


def fingerprint(report):
    return (report.to_dict(),
            [(r.request.request_id, r.prediction, r.completion,
              r.batch_size, r.replica, r.degraded)
             for r in report.responses])


# ----------------------------------------------------------------------
# ServeEngine: the single-node configuration
# ----------------------------------------------------------------------
CACHES = st.sampled_from([
    dict(),
    dict(cache_policy="lru", cache_ratio=0.05),
    dict(cache_policy="degree", cache_ratio=0.2),
    dict(cache_policy="lfu", cache_ratio=0.1, warm_ratio=0.1),
    dict(cache_policy="lru", cache_ratio=0.05, warm_ratio=0.2),
])


@st.composite
def serve_configs(draw):
    mode = draw(st.sampled_from(["sampled", "full", "precomputed"]))
    deadline = draw(st.one_of(st.none(),
                              st.sampled_from([2e-5, 1e-4, 5e-4, 2e-3])))
    return dict(
        mode=mode,
        policy=BatchPolicy(
            max_batch_size=draw(st.integers(1, 12)),
            max_wait=draw(st.sampled_from([0.0, 1e-4, 1e-3]))),
        max_queue=draw(st.one_of(st.none(), st.integers(1, 24))),
        deadline=deadline,
        fallback=(mode == "sampled" and deadline is not None
                  and draw(st.booleans())),
        seed=draw(st.integers(0, 3)),
        **draw(CACHES))


@settings(max_examples=25, deadline=None)
@given(config=serve_configs(),
       rate=st.sampled_from([2e3, 2e4, 2e5, 2e6]),
       trace_seed=st.integers(0, 5))
def test_serve_engine_conserves_requests(world, config, rate,
                                         trace_seed):
    data, model, embeddings, _ = world
    trace = trace_for(data, rate, 60, trace_seed)

    def run():
        return ServeEngine(data, model, fanout=(4, 4),
                           embeddings=embeddings, **config).run(trace)

    report = run()
    assert report.completed + report.rejected + report.shed \
        == report.num_requests == len(trace)
    assert report.completed == len(report.responses)
    check_answers(trace, report.responses)
    assert all(r.batch_size <= config["policy"].max_batch_size
               for r in report.responses)
    assert report.degraded \
        == sum(r.degraded for r in report.responses)
    if not config["fallback"]:
        assert report.degraded == 0
    if config["deadline"] is None:
        assert report.shed == 0
    assert fingerprint(run()) == fingerprint(report)
    with polling_loop():
        assert fingerprint(run()) == fingerprint(report)


# ----------------------------------------------------------------------
# FleetEngine: N nodes behind a router, with the fleet's handlers
# ----------------------------------------------------------------------
def _schedule(kind, span, replicas):
    last = replicas - 1
    return {
        "none": None,
        "crash": f"crash@{0.3 * span:.6f}+{0.2 * span:.6f}:w0",
        "crash-storm": (f"crash@{0.2 * span:.6f}+{0.3 * span:.6f}:w0,"
                        f"crash@{0.25 * span:.6f}+{0.3 * span:.6f}"
                        f":w{last}"),
        "blackout": ",".join(
            f"crash@{0.4 * span:.6f}+{0.2 * span:.6f}:w{i}"
            for i in range(replicas)),
        "straggler-slowlink": (
            f"straggler@{0.1 * span:.6f}+{0.5 * span:.6f}:w{last}:x6,"
            f"slowlink@{0.2 * span:.6f}+{0.5 * span:.6f}:x0.25"),
    }[kind]


def check_fleet_run(world, replicas, partitioner, spill, schedule,
                    resilience, autoscale, max_queue, rate, trace_seed):
    data, model, embeddings, partitions = world
    trace = trace_for(data, rate, 150, trace_seed)
    span = trace[-1].arrival
    kwargs = dict(
        partition=partitions[partitioner, replicas],
        mode="precomputed", embeddings=embeddings,
        policy=BatchPolicy(max_batch_size=8, max_wait=2e-4),
        max_queue=max_queue, cache_policy="lfu", cache_ratio=0.1,
        warm_ratio=0.1, seed=1,
        routing=RoutingPolicy(spill_threshold=spill),
        schedule=_schedule(schedule, span, replicas))
    if autoscale:
        kwargs["autoscale"] = AutoscalePolicy(
            min_replicas=1, high_watermark=4.0, low_watermark=0.5,
            cooldown=0.05 * span)
    if resilience is not None:
        kwargs.update(resilience=resilience,
                      replication=min(2, replicas))

    def run():
        with tempfile.TemporaryDirectory(prefix="loop-inv-") as scratch:
            if resilience is not None:
                kwargs["recovery"] = ReplicaRecovery(
                    scratch, snapshot_interval=0.1 * span)
            return FleetEngine(data, model, **kwargs).run(trace)

    report = run()
    assert report.num_requests == len(trace)
    # Per request, not per copy: a hedged request whose copies are
    # all lost is rejected once, one whose twin answers is not.
    assert report.completed + report.rejected == len(trace)
    assert report.completed == len(report.responses)
    assert report.dropped <= report.rejected
    assert report.dropped == len(report.dropped_request_ids) \
        == len(set(report.dropped_request_ids))
    assert not set(report.dropped_request_ids) \
        & {r.request.request_id for r in report.responses}
    assert set(report.dropped_request_ids) \
        <= {r.request_id for r in trace}
    check_answers(trace, report.responses)
    assert sum(r.completed for r in report.replicas) \
        >= report.completed     # hedge twins may be served twice
    # ... but the fleet's latency fields are over answered requests,
    # not over copies: a wasted twin is nobody's latency.
    latencies = [r.latency for r in report.responses]
    assert len(latencies) == report.completed
    if latencies:
        assert report.latency_max == max(latencies)
        assert report.latency_p99 == percentile(latencies, 99.0)
        assert report.latency_mean == pytest.approx(
            sum(latencies) / len(latencies), rel=1e-12)
    assert fingerprint(run()) == fingerprint(report)
    with polling_loop():
        assert fingerprint(run()) == fingerprint(report)
    with chaos_oracle():
        assert fingerprint(run()) == fingerprint(report)


@settings(max_examples=20, deadline=None)
@given(replicas=st.integers(1, 4),
       partitioner=st.sampled_from(["hash", "metis-v"]),
       spill=st.sampled_from([None, 2, 16]),
       schedule=st.sampled_from(["none", "crash", "crash-storm",
                                 "blackout", "straggler-slowlink"]),
       resilience=st.sampled_from([
           None, ResiliencePolicy(retry_budget=2, hedge=None),
           ResiliencePolicy(retry_budget=2)]),
       autoscale=st.booleans(),
       max_queue=st.sampled_from([None, 8, 64]),
       rate=st.sampled_from([2e4, 2e5]),
       trace_seed=st.integers(0, 5))
def test_fleet_engine_conserves_requests(world, **config):
    check_fleet_run(world, **config)


@pytest.mark.parametrize("config", [
    # Both copies of a hedged request orphaned, both re-submissions
    # unroutable: was rejected + dropped once per copy (151 of 150).
    dict(replicas=2, partitioner="metis-v", spill=2,
         schedule="crash-storm", autoscale=False, max_queue=None,
         rate=2e4, trace_seed=5, retry_budget=1),
    dict(replicas=2, partitioner="hash", spill=16,
         schedule="crash-storm", autoscale=True, max_queue=None,
         rate=2e4, trace_seed=2, retry_budget=3),
    # One copy over the retry budget, its twin answered: was counted
    # completed *and* dropped.
    dict(replicas=3, partitioner="hash", spill=None,
         schedule="crash-storm", autoscale=True, max_queue=64,
         rate=2e4, trace_seed=5, retry_budget=1),
], ids=["both-copies-unroutable", "both-copies-unroutable-autoscaled",
        "budget-drop-twin-answered"])
def test_hedged_requests_are_counted_once(world, config):
    """The configurations PR 14's fuzz (and a 1 200-run sweep of this
    file's grid) found violating ``completed + rejected == offered``
    while ``rejected`` was counted per copy."""
    config = dict(config)
    resilience = ResiliencePolicy(
        retry_budget=config.pop("retry_budget"))
    check_fleet_run(world, resilience=resilience, **config)
