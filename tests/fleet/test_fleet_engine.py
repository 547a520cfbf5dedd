"""FleetEngine end-to-end: the bit-match invariant at N>1, determinism,
failover, autoscaling, and report plumbing.  (A 1-replica fleet and
``ServeEngine`` are the same event loop; what both must reproduce is
pinned in ``tests/serve/test_golden_runs.py``.)"""

import json

import numpy as np
import pytest

from repro import load_dataset
from repro.errors import FaultError, FleetError, ServingError
from repro.fleet import AutoscalePolicy, FleetEngine, RoutingPolicy
from repro.nn import build_model
from repro.serve import BatchPolicy, LayerwiseEmbeddings, \
    LoadGenerator, ServeEngine, ServeReport

POLICY = BatchPolicy(max_batch_size=16, max_wait=0.002)


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.15)


@pytest.fixture(scope="module")
def model(data):
    return build_model("gcn", data.feature_dim, data.num_classes,
                       rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def embeddings(data, model):
    return LayerwiseEmbeddings(model, data.graph, data.features)


@pytest.fixture(scope="module")
def trace(data):
    return LoadGenerator(data.test_ids, rate=20000.0,
                         num_requests=200, seed=1, skew=0.8).generate()


def answers(report):
    return {r.request.request_id: (r.prediction, r.completion)
            for r in report.responses}


class TestSingleServerReduction:
    @pytest.mark.parametrize("partition", ["hash", "metis-v"])
    def test_sharded_predictions_bit_match(self, data, model,
                                           embeddings, trace,
                                           partition):
        """Re-batching across 4 shards must not change a single
        prediction (row-wise precomputed evaluation)."""
        single = ServeEngine(data, model, mode="precomputed",
                             policy=POLICY, embeddings=embeddings,
                             seed=2)
        fleet = FleetEngine(
            data, model, partition=partition, num_replicas=4,
            mode="precomputed", policy=POLICY, embeddings=embeddings,
            routing=RoutingPolicy(spill_threshold=32), seed=2)
        want = {r.request.request_id: r.prediction
                for r in single.run(trace).responses}
        got_report = fleet.run(trace)
        got = {r.request.request_id: r.prediction
               for r in got_report.responses}
        assert want == got
        assert got_report.completed == len(trace)
        assert got_report.rejected == 0


class TestDeterminism:
    def test_same_seed_identical_runs(self, data, model, embeddings,
                                      trace):
        def run():
            fleet = FleetEngine(data, model, partition="metis-v",
                                num_replicas=4, mode="precomputed",
                                policy=POLICY, embeddings=embeddings,
                                seed=3)
            return fleet.run(trace)

        first, second = run(), run()
        assert answers(first) == answers(second)
        assert first.to_dict() == second.to_dict()


class TestFailover:
    def test_crash_reroutes_and_completes_everything(self, data, model,
                                                     embeddings, trace):
        mid = trace[len(trace) // 3].arrival
        fleet = FleetEngine(
            data, model, partition="metis-v", num_replicas=4,
            mode="precomputed", policy=POLICY, embeddings=embeddings,
            routing=RoutingPolicy(spill_threshold=32),
            schedule=f"crash@{mid!r}+0.05:w0", seed=2)
        report = fleet.run(trace)
        assert report.completed == len(trace)
        assert report.rejected == 0
        assert report.failovers > 0
        down = [r for r in report.replicas if r.crashes == 1]
        assert len(down) == 1 and down[0].replica == 0
        assert down[0].down_seconds == pytest.approx(0.05)
        # Predictions still bit-match the single server.
        single = ServeEngine(data, model, mode="precomputed",
                             policy=POLICY, embeddings=embeddings,
                             seed=2)
        want = {r.request.request_id: r.prediction
                for r in single.run(trace).responses}
        got = {r.request.request_id: r.prediction
               for r in report.responses}
        assert want == got

    def test_whole_fleet_down_rejects(self, data, model, embeddings,
                                      trace):
        fleet = FleetEngine(
            data, model, partition="hash", num_replicas=2,
            mode="precomputed", policy=POLICY, embeddings=embeddings,
            schedule="crash@0+10:w0,crash@0+10:w1", seed=2)
        report = fleet.run(trace)
        assert report.rejected > 0
        assert report.completed + report.rejected >= len(trace)


class TestAutoscale:
    def test_scales_up_under_load(self, data, model, embeddings,
                                  trace):
        fleet = FleetEngine(
            data, model, partition="metis-v", num_replicas=4,
            mode="precomputed", policy=POLICY, embeddings=embeddings,
            routing=RoutingPolicy(spill_threshold=4),
            autoscale=AutoscalePolicy(min_replicas=1,
                                      high_watermark=4.0,
                                      low_watermark=0.5,
                                      cooldown=0.001),
            seed=2)
        report = fleet.run(trace)
        ups = [e for e in report.scale_events if e[1] == "up"]
        assert ups, "expected scale-up events under 10x load"
        assert report.replicas_active_max > 1
        assert report.completed == len(trace)


class TestReport:
    def test_report_round_trips_through_json(self, data, model,
                                             embeddings, trace):
        fleet = FleetEngine(data, model, partition="metis-ve",
                            num_replicas=2, mode="precomputed",
                            policy=POLICY, embeddings=embeddings,
                            cache_policy="lfu", cache_ratio=0.1,
                            warm_ratio=0.1, seed=2)
        report = fleet.run(trace)
        assert isinstance(report, ServeReport)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["num_replicas"] == 2
        assert payload["partitioner"] == "metis-ve"
        assert payload["completed"] == len(trace)
        assert 0.0 <= payload["routing_locality"] <= 1.0
        assert 0.0 <= payload["remote_row_fraction"] <= 1.0
        assert payload["throughput"] > 0
        assert len(payload["replicas"]) == 2
        assert "hot_hit_rate" in payload
        shares = payload["breakdown"]
        assert sum(shares.values()) == pytest.approx(1.0)
        assert payload["reject_rate"] == 0.0

    def test_zero_traffic_replica_reports_null_latency(self, data,
                                                       model,
                                                       embeddings):
        """A shard no request ever lands on must render null latency
        fields, not raise (satellite regression test)."""
        # All 30 requests target vertices owned by one metis-v shard.
        fleet = FleetEngine(data, model, partition="metis-v",
                            num_replicas=4, mode="precomputed",
                            policy=POLICY, embeddings=embeddings,
                            seed=2)
        owned = fleet.shards.shard_vertices(0)
        trace = LoadGenerator(owned, rate=2000.0, num_requests=30,
                              seed=4).generate()
        report = fleet.run(trace)
        idle = [r for r in report.replicas if r.completed == 0]
        assert idle, "expected at least one idle replica"
        for replica in idle:
            assert replica.latency_p99 is None
            assert replica.latency_mean is None
        # The busy shard still has numbers.
        busy = next(r for r in report.replicas if r.replica == 0)
        assert busy.latency_p99 is not None
        json.dumps(report.to_dict())   # nulls serialize


class TestValidation:
    def test_empty_trace_rejected(self, data, model, embeddings):
        fleet = FleetEngine(data, model, partition="hash",
                            num_replicas=2, mode="precomputed",
                            embeddings=embeddings)
        with pytest.raises(ServingError):
            fleet.run([])

    def test_partition_name_requires_num_replicas(self, data, model,
                                                  embeddings):
        with pytest.raises(FleetError):
            FleetEngine(data, model, partition="hash",
                        embeddings=embeddings)

    def test_num_replicas_must_match_partition(self, data, model,
                                               embeddings):
        part = fleet_partition(data, 4)
        with pytest.raises(FleetError):
            FleetEngine(data, model, partition=part, num_replicas=2,
                        embeddings=embeddings)

    def test_bad_crash_triples_rejected(self, data, model, embeddings):
        for schedule, error in (
                ("crash@0+1:w9", FleetError),    # unknown replica
                ("crash@-1+1:w0", FaultError),   # negative time
                ("crash@0+0:w0", FaultError)):   # zero downtime
            with pytest.raises(error):
                FleetEngine(data, model, partition="hash",
                            num_replicas=2, embeddings=embeddings,
                            schedule=schedule)

    def test_unknown_mode_rejected(self, data, model):
        with pytest.raises(ServingError):
            FleetEngine(data, model, partition="hash", num_replicas=2,
                        mode="telepathy")


def fleet_partition(data, parts):
    from repro.core import make_partitioner
    return make_partitioner("hash").partition(
        data.graph, parts, rng=np.random.default_rng(0))
