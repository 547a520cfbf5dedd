"""The fleet resilience layer: detector math, breaker transitions,
the fleet's fault schedule checks, crash recovery, and the engine-level guarantees
(k=1 / resilience-off reduce to the baseline bit-for-bit; hedging,
budgets, and recovery actually run when configured)."""

import math
from bisect import insort
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.errors import (CheckpointError, FaultError, FleetError,
                          TransferError)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.fleet import (AutoscalePolicy, BreakerPolicy, CircuitBreaker,
                         DetectorPolicy, FailureDetector, FleetEngine,
                         HedgePolicy, ReplicaRecovery, ResiliencePolicy,
                         RoutingPolicy)
from repro.nn import build_model
from repro.serve import BatchPolicy, LayerwiseEmbeddings, \
    LoadGenerator, ServeEngine
from repro.transfer.tiered import TieredCache

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


# ----------------------------------------------------------------------
# Failure detection
# ----------------------------------------------------------------------
class TestDetectorPolicy:
    def test_suspect_delay_is_accrual_formula(self):
        policy = DetectorPolicy(heartbeat_interval=2e-4,
                                suspect_phi=2.0, dead_phi=4.0)
        assert policy.suspect_delay == pytest.approx(
            2.0 * math.log(10.0) * 2e-4)
        assert policy.dead_delay == pytest.approx(
            4.0 * math.log(10.0) * 2e-4)
        assert policy.dead_delay > policy.suspect_delay

    def test_default_suspicion_beats_retry_timeout(self):
        # The whole point: suspicion lands an order of magnitude
        # before the 10 ms retry timeout.
        assert DetectorPolicy().suspect_delay < 0.01 / 5

    def test_validation(self):
        with pytest.raises(FleetError, match="heartbeat_interval"):
            DetectorPolicy(heartbeat_interval=0.0)
        with pytest.raises(FleetError, match="suspect_phi"):
            DetectorPolicy(suspect_phi=0.0)
        with pytest.raises(FleetError, match="dead_phi"):
            DetectorPolicy(suspect_phi=3.0, dead_phi=3.0)


class TestFailureDetector:
    def test_last_heartbeat_is_latest_multiple(self):
        detector = FailureDetector(
            DetectorPolicy(heartbeat_interval=2e-4), 2)
        assert detector.last_heartbeat(0, 1.05e-3) \
            == pytest.approx(1.0e-3)
        assert detector.last_heartbeat(0, 2e-4) == pytest.approx(2e-4)
        assert detector.last_heartbeat(0, 0.0) == 0.0

    def test_heartbeat_re_anchors(self):
        detector = FailureDetector(
            DetectorPolicy(heartbeat_interval=2e-4), 2)
        detector.heartbeat(1, 3.3e-4)
        assert detector.last_heartbeat(1, 6e-4) \
            == pytest.approx(5.3e-4)

    def test_suspect_at_follows_crash(self):
        policy = DetectorPolicy(heartbeat_interval=2e-4)
        detector = FailureDetector(policy, 1)
        crash = 1.05e-3
        when = detector.suspect_at(0, crash)
        # Last beat at 1.0 ms, suspicion = last beat + suspect delay,
        # never before the crash itself.
        assert when == pytest.approx(1.0e-3 + policy.suspect_delay)
        assert when >= crash
        assert detector.dead_at(0, crash) > when
        assert detector.mean_detection_delay \
            == pytest.approx(when - crash)

    def test_mean_detection_delay_none_without_crashes(self):
        detector = FailureDetector(DetectorPolicy(), 3)
        assert detector.mean_detection_delay is None


# ----------------------------------------------------------------------
# Circuit breaking
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_lifecycle(self):
        breaker = CircuitBreaker(BreakerPolicy(reset_timeout=1e-3,
                                               half_open_successes=2))
        assert breaker.state == "closed"
        assert breaker.allows(0.0)

        breaker.trip(1.0)
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allows(1.0005)

        # reset_timeout elapses: the next query flips to half-open.
        assert breaker.allows(1.0011)
        assert breaker.state == "half-open"
        assert breaker.half_opens == 1

        breaker.record_success(1.002)
        assert breaker.state == "half-open"
        breaker.record_success(1.003)
        assert breaker.state == "closed"

    def test_retrip_while_open_counts_once(self):
        breaker = CircuitBreaker(BreakerPolicy())
        breaker.trip(0.0)
        breaker.trip(0.001)
        assert breaker.trips == 1

    def test_success_in_closed_is_noop(self):
        breaker = CircuitBreaker(BreakerPolicy())
        breaker.record_success(0.5)
        assert breaker.state == "closed"

    def test_validation(self):
        with pytest.raises(FleetError, match="reset_timeout"):
            BreakerPolicy(reset_timeout=0.0)
        with pytest.raises(FleetError, match="half_open_successes"):
            BreakerPolicy(half_open_successes=0)


class TestPolicyValidation:
    def test_hedge_policy(self):
        with pytest.raises(FleetError, match="delay_quantile"):
            HedgePolicy(delay_quantile=100.0)
        with pytest.raises(FleetError, match="min_delay"):
            HedgePolicy(min_delay=0.0)
        with pytest.raises(FleetError, match="min_observations"):
            HedgePolicy(min_observations=0)

    def test_resilience_policy_budget(self):
        with pytest.raises(FleetError, match="retry_budget"):
            ResiliencePolicy(retry_budget=0)
        with pytest.raises(FleetError, match="retry_budget"):
            ResiliencePolicy(retry_budget=math.nan)
        # An unbounded budget stays legal (the resilience-off run).
        assert ResiliencePolicy(retry_budget=math.inf).retry_budget \
            == math.inf

    # A NaN passes every ``x <= 0`` check; as a delay it would push
    # ``clock + nan`` onto the event heap, as a penalty it would make
    # the router's ``min`` arbitrary.
    @pytest.mark.parametrize("field, build", [
        ("min_delay", lambda _: HedgePolicy(min_delay=math.nan)),
        ("reset_timeout",
         lambda _: BreakerPolicy(reset_timeout=math.nan)),
        ("heartbeat_interval",
         lambda _: DetectorPolicy(heartbeat_interval=math.nan)),
        ("remote_penalty",
         lambda _: RoutingPolicy(remote_penalty=math.nan)),
        ("high_watermark",
         lambda _: AutoscalePolicy(high_watermark=math.nan)),
        ("cooldown", lambda _: AutoscalePolicy(cooldown=math.nan)),
        ("low_watermark",
         lambda _: AutoscalePolicy(low_watermark=math.nan)),
        ("suspect_phi", lambda _: DetectorPolicy(suspect_phi=math.nan)),
        ("dead_phi", lambda _: DetectorPolicy(dead_phi=math.nan)),
        ("snapshot_interval",
         lambda root: ReplicaRecovery(root, snapshot_interval=math.nan)),
    ], ids=["min_delay", "reset_timeout", "heartbeat_interval",
            "remote_penalty", "high_watermark", "cooldown",
            "low_watermark", "suspect_phi", "dead_phi",
            "snapshot_interval"])
    def test_nan_knob_rejected(self, tmp_path, field, build):
        with pytest.raises(FleetError, match=field):
            build(tmp_path)

    # ``heartbeat_interval=inf`` makes the suspect / dead instants
    # ``0 * inf`` = NaN; a NaN or fractional count never equals the
    # counter it is compared with (a breaker that never closes) or, as
    # ``min_observations``, arms hedging on an empty latency list.
    @pytest.mark.parametrize("field, build", [
        ("heartbeat_interval",
         lambda: DetectorPolicy(heartbeat_interval=math.inf)),
        ("half_open_successes",
         lambda: BreakerPolicy(half_open_successes=math.nan)),
        ("half_open_successes",
         lambda: BreakerPolicy(half_open_successes=1.5)),
        ("min_observations",
         lambda: HedgePolicy(min_observations=math.nan)),
        ("min_observations",
         lambda: HedgePolicy(min_observations=2.5)),
    ], ids=["heartbeat_interval-inf", "half_open_successes-nan",
            "half_open_successes-fraction", "min_observations-nan",
            "min_observations-fraction"])
    def test_infinite_interval_and_non_integer_count_rejected(
            self, field, build):
        with pytest.raises(FleetError, match=field):
            build()

    def test_infinite_delays_still_mean_never(self):
        assert HedgePolicy(min_delay=math.inf).min_delay == math.inf
        assert BreakerPolicy(reset_timeout=math.inf).reset_timeout \
            == math.inf
        assert BreakerPolicy(half_open_successes=np.int64(3)) \
            .half_open_successes == 3

    def test_members_default_on_and_none_disables(self):
        policy = ResiliencePolicy()
        assert policy.detector is not None
        assert policy.breaker is not None
        assert policy.hedge is not None
        bare = ResiliencePolicy(detector=None, breaker=None, hedge=None)
        assert bare.detector is None and bare.hedge is None


class TestHedgeDelay:
    """The run reads the hedge delay's quantile without re-sorting: off
    a list kept ascending with ``insort`` (the oracles' way) or off the
    run's ``_LatencyRanks`` over its answer-order list; either must
    equal the sort-every-time definition after every completion."""

    @settings(max_examples=100, deadline=None)
    @given(latencies=st.lists(st.sampled_from([0.0, 1e-6, 2e-4, 2e-4,
                                               3e-3, 0.25, 1.0])
                              | st.floats(0.0, 1.0), max_size=80),
           quantile=st.floats(0.5, 99.5),
           min_observations=st.integers(1, 25),
           reads=st.lists(st.booleans(), min_size=80, max_size=80))
    def test_ranks_equal_percentile_on_the_prefixes_read(
            self, latencies, quantile, min_observations, reads):
        """Answers land between reads, a few or many at a time, with
        ties and zeros."""
        from repro.fleet.engine import FleetEngine, _LatencyRanks
        from repro.perf.profiler import percentile
        hedge = HedgePolicy(delay_quantile=quantile, min_delay=1e-4,
                            min_observations=min_observations)
        values = []
        ranks = _LatencyRanks(values)
        assert FleetEngine._hedge_delay(hedge, ranks) is None
        for count, (latency, read) in enumerate(zip(latencies, reads),
                                                start=1):
            values.append(latency)
            if not read:
                continue
            delay = FleetEngine._hedge_delay(hedge, ranks)
            if count < min_observations:
                assert delay is None
            else:
                assert delay == max(
                    hedge.min_delay,
                    percentile(latencies[:count], quantile))

    @settings(max_examples=50, deadline=None)
    @given(latencies=st.lists(st.floats(0.0, 1.0), min_size=1,
                              max_size=40),
           order=st.randoms(use_true_random=False))
    def test_any_rank_reads_as_the_sorted_list(self, latencies, order):
        from repro.fleet.engine import _LatencyRanks
        ranks = _LatencyRanks(list(latencies))
        positions = list(range(len(latencies)))
        order.shuffle(positions)
        ordered = sorted(latencies)
        for position in positions:
            assert ranks[position] == ordered[position]

    @settings(max_examples=100, deadline=None)
    @given(latencies=st.lists(st.floats(1e-6, 1.0), max_size=60),
           quantile=st.floats(0.5, 99.5),
           min_observations=st.integers(1, 25))
    def test_ordered_list_equals_percentile_on_every_prefix(
            self, latencies, quantile, min_observations):
        from repro.fleet.engine import FleetEngine
        from repro.perf.profiler import percentile
        hedge = HedgePolicy(delay_quantile=quantile, min_delay=1e-4,
                            min_observations=min_observations)
        ordered = []
        assert FleetEngine._hedge_delay(hedge, ordered) is None
        for count, latency in enumerate(latencies, start=1):
            insort(ordered, latency)
            delay = FleetEngine._hedge_delay(hedge, ordered)
            if count < min_observations:
                assert delay is None
            else:
                assert delay == max(
                    hedge.min_delay,
                    percentile(latencies[:count], quantile))

    def test_presorted_read_skips_only_the_sort(self):
        from repro.perf.profiler import percentile
        values = [0.3, 0.1, 0.2, 0.5, 0.4]
        for q in (0.0, 37.5, 50.0, 95.0, 100.0):
            assert percentile(sorted(values), q, presorted=True) \
                == percentile(values, q)
        assert percentile([], 50.0, default=None, presorted=True) is None


# ----------------------------------------------------------------------
# Fleet schedules (the shared fault grammar, seconds clock)
# ----------------------------------------------------------------------
class TestFleetSchedule:
    """The fleet's schedule is the plan itself (one compiled timeline);
    FleetEngine adds the checks only the fleet can make."""

    def fleet(self, data, model, embeddings, schedule, replicas=4):
        return FleetEngine(data, model, partition="hash",
                           num_replicas=replicas, embeddings=embeddings,
                           schedule=schedule)

    def test_compiles_spec_string(self, data, model, embeddings):
        schedule = self.fleet(
            data, model, embeddings,
            "crash@0.001+0.002:w0,straggler@0.001+0.004:w1:x8,"
            "slowlink@0.002+0.002:x0.5").schedule
        assert isinstance(schedule, FaultPlan)
        assert schedule.crashes == ((0.001, 0, 0.002),)
        assert schedule.multipliers(1, 0.003) == (8.0, 0.5)
        assert schedule.multipliers(1, 0.006) == (1.0, 1.0)
        assert schedule.multipliers(2, 0.003) == (1.0, 0.5)

    def test_windows_are_half_open(self):
        schedule = FaultPlan.parse("straggler@0.001+0.002:w0:x4")
        assert schedule.multipliers(0, 0.001) == (4.0, 1.0)
        assert schedule.multipliers(0, 0.003) == (1.0, 1.0)

    def test_rejects_training_only_kinds(self, data, model, embeddings):
        for spec in ("halt@2", "flaky@0+2:w0:p0.3"):
            with pytest.raises(FaultError, match="training-only"):
                self.fleet(data, model, embeddings, spec)

    def test_rejects_out_of_range_replica(self, data, model, embeddings):
        with pytest.raises(FleetError, match="replica 7"):
            self.fleet(data, model, embeddings, "crash@0.001+0.001:w7")

    def test_describe_and_plan_passthrough(self, data, model,
                                           embeddings):
        plan = FaultPlan.parse("crash@0.001+0.002:w0")
        schedule = self.fleet(data, model, embeddings, plan,
                              replicas=2).schedule
        assert schedule is plan
        assert "crash@0.001" in schedule.describe()
        assert len(schedule) == 1

    def test_needs_plan_or_spec(self, data, model, embeddings):
        with pytest.raises(FaultError, match="FaultPlan or spec"):
            self.fleet(data, model, embeddings, 42)


# ----------------------------------------------------------------------
# Crash recovery (checkpointer-backed cache snapshots)
# ----------------------------------------------------------------------
def _stub_replica(replica_id, cache):
    return SimpleNamespace(replica_id=replica_id,
                           executor=SimpleNamespace(cache=cache))


def _warmed_cache(num_vertices=32, lookups=3):
    cache = TieredCache(num_vertices, hot_capacity=4, warm_capacity=4,
                        policy="lfu")
    for _ in range(lookups):
        cache.lookup(np.arange(8))
    return cache


def _assert_same_state(state, reference):
    assert state.keys() == reference.keys()
    for key, value in reference.items():
        assert np.array_equal(state[key], value), key


def _count_commits(monkeypatch):
    """Record the path of every ``Checkpointer.save``."""
    from repro.faults import Checkpointer
    commits = []
    save = Checkpointer.save

    def counted(self, state):
        commits.append(self.path)
        return save(self, state)
    monkeypatch.setattr(Checkpointer, "save", counted)
    return commits


class TestReplicaRecovery:
    def test_round_trip_restores_residency(self, tmp_path):
        recovery = ReplicaRecovery(tmp_path)
        cache = _warmed_cache()
        replica = _stub_replica(0, cache)
        reference = cache.snapshot()
        assert recovery.save(replica, clock=0.002)
        assert recovery.snapshots == 1

        cache.evict_all()
        assert cache.residency() == {"hot": 0, "warm": 0}
        assert recovery.restore(replica)
        restored = cache.snapshot()
        assert np.array_equal(restored["tier"], reference["tier"])
        assert np.array_equal(restored["hot_ids"],
                              reference["hot_ids"])
        assert restored["clock"] == reference["clock"]
        assert recovery.recoveries == 1
        assert recovery.cold_recoveries == 0

    def test_cold_recovery_without_snapshot(self, tmp_path):
        recovery = ReplicaRecovery(tmp_path)
        replica = _stub_replica(1, _warmed_cache())
        assert not recovery.restore(replica)
        assert recovery.cold_recoveries == 1

    def test_non_tiered_cache_is_noop(self, tmp_path):
        recovery = ReplicaRecovery(tmp_path)
        replica = _stub_replica(0, None)
        assert not recovery.save(replica, clock=0.0)
        assert not recovery.restore(replica)
        assert recovery.snapshots == 0

    def test_one_round_file_holds_every_replica(self, tmp_path,
                                                monkeypatch):
        commits = _count_commits(monkeypatch)
        recovery = ReplicaRecovery(tmp_path)
        caches = [_warmed_cache(lookups=1), _warmed_cache(lookups=3)]
        references = [cache.snapshot() for cache in caches]
        assert recovery.save(_stub_replica(0, caches[0]),
                             _stub_replica(1, caches[1]),
                             clock=0.001) == 2
        assert commits == [tmp_path / "rounds.ckpt"]
        assert recovery.snapshots == 2
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["rounds.ckpt"]
        for replica_id, cache in enumerate(caches):
            cache.evict_all()
            assert recovery.restore(_stub_replica(replica_id, cache))
            _assert_same_state(cache.snapshot(), references[replica_id])

    def test_down_replica_restores_its_last_live_state(self, tmp_path):
        recovery = ReplicaRecovery(tmp_path)
        up, down = _warmed_cache(lookups=1), _warmed_cache(lookups=2)
        recovery.save(_stub_replica(0, up), _stub_replica(1, down),
                      clock=0.001)
        last_live = down.snapshot()
        # Replica 1 is down for the next two rounds: not collected, so
        # nothing its cache does meanwhile reaches a round.
        down.lookup(np.arange(8, 16))
        for clock in (0.002, 0.003):
            up.lookup(np.arange(4, 12))
            assert recovery.save(_stub_replica(0, up), clock=clock) == 1
        newest = up.snapshot()
        assert recovery.snapshots == 4
        down.evict_all()
        assert recovery.restore(_stub_replica(1, down))
        _assert_same_state(down.snapshot(), last_live)
        up.evict_all()
        assert recovery.restore(_stub_replica(0, up))
        _assert_same_state(up.snapshot(), newest)

    @pytest.mark.parametrize("tear", ["truncated-payload",
                                      "torn-header", "flipped-byte"])
    def test_torn_newest_round_falls_back_for_every_replica(
            self, tmp_path, tear):
        """The second round went to the second slot; torn there, every
        replica restores the first round, and the next round is written
        over the torn slot, not over the one that still verifies."""
        recovery = ReplicaRecovery(tmp_path)
        caches = [_warmed_cache(lookups=1), _warmed_cache(lookups=2)]
        replicas = [_stub_replica(i, c) for i, c in enumerate(caches)]
        recovery.save(*replicas, clock=0.001)
        previous = [cache.snapshot() for cache in caches]
        for cache in caches:
            cache.lookup(np.arange(8, 24))
        recovery.save(*replicas, clock=0.002)
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["rounds.ckpt", "rounds.ckpt.alt"]
        newest = tmp_path / "rounds.ckpt.alt"
        raw = newest.read_bytes()
        if tear == "truncated-payload":
            newest.write_bytes(raw[:-7])
        elif tear == "torn-header":
            newest.write_bytes(raw[:raw.index(b"}\n") // 2])
        else:
            newest.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0x10]))
        for replica, reference in zip(replicas, previous):
            replica.executor.cache.evict_all()
            assert recovery.restore(replica)
            _assert_same_state(replica.executor.cache.snapshot(),
                               reference)
        assert recovery.cold_recoveries == 0
        first_round = (tmp_path / "rounds.ckpt").read_bytes()
        recovery.save(*replicas, clock=0.003)
        assert (tmp_path / "rounds.ckpt").read_bytes() == first_round

    def test_replica_without_cache_is_neither_collected_nor_counted(
            self, tmp_path, monkeypatch):
        commits = _count_commits(monkeypatch)
        recovery = ReplicaRecovery(tmp_path)
        bare = _stub_replica(1, None)
        assert recovery.save(bare, clock=0.0) == 0
        assert commits == [] and recovery.snapshots == 0
        assert recovery.save(_stub_replica(0, _warmed_cache()), bare,
                             clock=0.001) == 1
        assert len(commits) == 1 and recovery.snapshots == 1
        from repro.faults import Checkpointer
        assert set(Checkpointer(tmp_path / "rounds.ckpt")
                   .load_latest()["caches"]) == {0}
        assert not recovery.restore(bare)
        assert recovery.recoveries == 0

    def test_reset_forgets_counters_and_rounds(self, tmp_path):
        recovery = ReplicaRecovery(tmp_path)
        cache = _warmed_cache()
        replica = _stub_replica(0, cache)
        recovery.save(replica, clock=0.001)
        recovery.save(replica, clock=0.002)
        assert recovery.restore(replica)
        recovery.reset()
        assert (recovery.snapshots, recovery.recoveries,
                recovery.cold_recoveries) == (0, 0, 0)
        assert list(tmp_path.iterdir()) == []
        assert not recovery.restore(replica)
        assert recovery.cold_recoveries == 1

    def test_snapshot_interval_validated(self, tmp_path):
        with pytest.raises(FleetError, match="snapshot_interval"):
            ReplicaRecovery(tmp_path, snapshot_interval=0.0)

    def test_mismatched_snapshot_refused(self):
        cache = _warmed_cache()
        other = TieredCache(32, hot_capacity=2, warm_capacity=2,
                            policy="lru")
        with pytest.raises(TransferError, match="does not match"):
            other.restore(cache.snapshot())

    def test_load_latest_error_is_checkpoint_error(self, tmp_path):
        # The recovery layer catches CheckpointError; make sure the
        # missing-file path actually raises that family.
        from repro.faults import Checkpointer
        with pytest.raises(CheckpointError):
            Checkpointer(tmp_path / "none.ckpt").load_latest()


# ----------------------------------------------------------------------
# Engine-level guarantees
# ----------------------------------------------------------------------
class TestBaselineReduction:
    def test_replication_one_is_identity(self, data, model,
                                         embeddings, trace):
        """k=1 must reproduce the single-owner fleet bit-for-bit."""
        def run(**kwargs):
            return FleetEngine(
                data, model, partition="metis-v", num_replicas=4,
                mode="precomputed", policy=POLICY,
                embeddings=embeddings, seed=3, **kwargs).run(trace)

        base, k1 = run(), run(replication=1)
        assert answers(base) == answers(k1)
        assert base.to_dict() == k1.to_dict()

    def test_replication_validated(self, data, model, embeddings):
        with pytest.raises(FleetError, match="replication"):
            FleetEngine(data, model, partition="metis-v",
                        num_replicas=4, mode="precomputed",
                        embeddings=embeddings, replication=5)


def _storm_engine(data, model, embeddings, trace, root, interval):
    """Four replicas under a two-crash storm, recovery snapshots every
    ``interval`` of the trace span."""
    from repro.fleet.chaos import crash_storm
    span = trace[-1].arrival
    return FleetEngine(
        data, model, partition="metis-v", num_replicas=4,
        mode="precomputed", policy=POLICY, embeddings=embeddings,
        cache_policy="lfu", cache_ratio=0.1, warm_ratio=0.1, seed=3,
        routing=RoutingPolicy(spill_threshold=64),
        schedule=crash_storm(4, start=0.25 * span, down=0.2 * span,
                             count=2, spacing=0.05 * span),
        replication=2, resilience=ResiliencePolicy(),
        recovery=ReplicaRecovery(root,
                                 snapshot_interval=interval * span))


def _storm_run(data, model, embeddings, trace, root, interval):
    return _storm_engine(data, model, embeddings, trace, root,
                         interval).run(trace)


class TestRecoveryBelongsToOneRun:
    """Both crashes land before the first snapshot (at 0.4 of the
    span), so each run's recoveries are cold — unless a run re-warms
    from rounds an earlier run committed, or counts on top of it."""

    def test_first_run_recovers_cold(self, data, model, embeddings,
                                     trace, tmp_path):
        stats = _storm_run(data, model, embeddings, trace, tmp_path,
                           interval=0.4).resilience
        assert stats["recoveries"] == stats["cold_recoveries"] == 2
        assert stats["snapshots"] > 0

    def test_second_run_of_the_engine_reports_identically(
            self, data, model, embeddings, trace, tmp_path):
        engine = _storm_engine(data, model, embeddings, trace, tmp_path,
                               interval=0.4)
        first = engine.run(trace)
        second = engine.run(trace)
        assert second.resilience == first.resilience
        assert second.to_dict() == first.to_dict()
        assert answers(second) == answers(first)

    def test_fresh_engine_over_the_same_directory_reports_identically(
            self, data, model, embeddings, trace, tmp_path):
        first = _storm_run(data, model, embeddings, trace, tmp_path,
                           interval=0.4)
        again = _storm_run(data, model, embeddings, trace, tmp_path,
                           interval=0.4)
        assert again.resilience == first.resilience
        assert again.to_dict() == first.to_dict()
        assert answers(again) == answers(first)


class TestResilientRuns:
    def test_detector_reroutes_before_timeout(self, data, model,
                                              embeddings, trace):
        """With the detector on, crash orphans re-enter routing at the
        suspicion instant — well before the 10 ms retry timeout — and
        predictions still bit-match the single server."""
        mid = trace[len(trace) // 3].arrival
        common = dict(partition="metis-v", num_replicas=4,
                      mode="precomputed", policy=POLICY,
                      embeddings=embeddings, seed=2,
                      routing=RoutingPolicy(spill_threshold=32))
        baseline = FleetEngine(data, model,
                               schedule=f"crash@{mid!r}+0.05:w0",
                               **common).run(trace)
        resilient = FleetEngine(
            data, model, schedule=f"crash@{mid!r}+0.05:w0", replication=2,
            resilience=ResiliencePolicy(hedge=None),
            **common).run(trace)

        single = ServeEngine(data, model, mode="precomputed",
                             policy=POLICY, embeddings=embeddings,
                             seed=2)
        reference = {r.request.request_id: r.prediction
                     for r in single.run(trace).responses}
        got = {r.request.request_id: r.prediction
               for r in resilient.responses}
        assert all(reference[rid] == p for rid, p in got.items())

        stats = resilient.resilience
        assert stats["suspicions"] == 1
        assert stats["mean_detection_delay"] < 0.01
        assert stats["breaker_trips"] == 1
        # Orphans finish sooner than under the timeout-only baseline.
        assert resilient.latency_max < baseline.latency_max

    def test_backup_serving_billed_locally(self, data, model,
                                           embeddings, trace):
        """With k=2, requests failing over to a backup holder are
        served from its local replica rows."""
        mid = trace[len(trace) // 3].arrival
        report = FleetEngine(
            data, model, partition="metis-v", num_replicas=4,
            mode="precomputed", policy=POLICY, embeddings=embeddings,
            seed=2, routing=RoutingPolicy(spill_threshold=32),
            schedule=f"crash@{mid!r}+0.05:w0", replication=2,
            resilience=ResiliencePolicy(hedge=None)).run(trace)
        assert report.replication_factor == pytest.approx(2.0)
        assert report.resilience["backup_routed"] > 0

    def test_retry_budget_drops_cascading_orphans(self, data, model,
                                                  embeddings, trace):
        """Two cascading crashes bounce the same orphans twice; a
        budget of 1 drops them instead of amplifying retries."""
        mid = trace[len(trace) // 3].arrival
        report = FleetEngine(
            data, model, partition="metis-v", num_replicas=2,
            mode="precomputed", policy=POLICY, embeddings=embeddings,
            seed=2, routing=RoutingPolicy(spill_threshold=32),
            # The second crash lands ~0.3 ms after the detector
            # re-routes the first crash's orphans (suspicion at
            # ~0.92 ms) — while they are still queued on replica 1.
            schedule=(f"crash@{mid!r}+0.05:w0,"
                      f"crash@{mid + 0.0012!r}+0.05:w1"),
            resilience=ResiliencePolicy(hedge=None, retry_budget=1),
        ).run(trace)
        stats = report.resilience
        assert stats["retry_budget_drops"] > 0
        assert report.dropped >= stats["retry_budget_drops"]
        assert len(report.dropped_request_ids) == report.dropped
        assert report.rejected >= report.dropped
        assert report.completed + report.rejected >= len(trace)

    def test_recovery_snapshots_and_restores(self, data, model,
                                             embeddings, trace,
                                             tmp_path):
        mid = trace[len(trace) // 3].arrival
        report = FleetEngine(
            data, model, partition="metis-v", num_replicas=4,
            mode="precomputed", policy=POLICY, embeddings=embeddings,
            cache_policy="lfu", cache_ratio=0.1, warm_ratio=0.1,
            seed=2, routing=RoutingPolicy(spill_threshold=32),
            schedule=f"crash@{mid!r}+0.01:w0", replication=2,
            resilience=ResiliencePolicy(hedge=None),
            recovery=ReplicaRecovery(tmp_path,
                                     snapshot_interval=0.002),
        ).run(trace)
        stats = report.resilience
        assert stats["snapshots"] > 0
        assert stats["recoveries"] == 1
        assert report.completed + report.rejected >= len(trace)

    def test_one_commit_per_snapshot_round(self, data, model,
                                           embeddings, trace, tmp_path,
                                           monkeypatch):
        """Every round is one ``Checkpointer.save`` however many live
        replicas it collects."""
        commits = _count_commits(monkeypatch)
        rounds = []
        save = ReplicaRecovery.save

        def counted(self, *replicas, clock):
            rounds.append(len(replicas))
            return save(self, *replicas, clock=clock)
        monkeypatch.setattr(ReplicaRecovery, "save", counted)
        report = _storm_run(data, model, embeddings, trace, tmp_path,
                            interval=0.1)
        assert len(commits) == len(rounds) >= 9
        assert report.resilience["snapshots"] == sum(rounds) \
            > len(commits)

    def test_hedging_launches_and_wins(self, data, model, embeddings):
        """Under a straggler window, hedge twins launch on healthy
        replicas and some beat the slow primary."""
        heavy = LoadGenerator(data.test_ids, rate=60000.0,
                              num_requests=400, seed=0,
                              skew=0.8).generate()
        span = heavy[-1].arrival
        plan = ",".join(
            f"straggler@{0.1 * span + i * 0.2 * span:.6f}"
            f"+{0.2 * span:.6f}:w{i}:x8" for i in range(4))
        report = FleetEngine(
            data, model, partition="metis-v", num_replicas=4,
            mode="precomputed",
            policy=BatchPolicy(max_batch_size=16, max_wait=0.0005),
            embeddings=embeddings, seed=0,
            routing=RoutingPolicy(spill_threshold=64,
                                  remote_penalty=8.0),
            schedule=plan, replication=2,
            resilience=ResiliencePolicy()).run(heavy)
        stats = report.resilience
        assert stats["hedges_launched"] > 0
        assert stats["hedges_won"] > 0
        assert stats["hedges_won"] <= stats["hedges_launched"]
        # Every request answered exactly once despite duplication.
        assert report.completed == len(heavy)
        ids = [r.request.request_id for r in report.responses]
        assert len(ids) == len(set(ids))

    def test_resilience_type_validated(self, data, model, embeddings):
        with pytest.raises(FleetError, match="ResiliencePolicy"):
            FleetEngine(data, model, partition="metis-v",
                        num_replicas=2, mode="precomputed",
                        embeddings=embeddings, resilience="yes")
