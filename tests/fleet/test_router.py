"""Router dispatch rules and the queue-depth autoscaler, exercised
against lightweight replica stubs (no model, no dataset)."""

import math

import pytest

from repro.errors import FleetError, SanitizerError
from repro.fleet import AutoscalePolicy, Autoscaler, Router, \
    RoutingPolicy
from repro.serve.requests import InferenceRequest


class StubShards:
    """owner(v) = v mod num_shards — enough for routing tests."""

    def __init__(self, num_shards):
        self.num_shards = num_shards
        self.owner_of = [v % num_shards for v in range(64)]

    def owner(self, vertex):
        return int(vertex) % self.num_shards


class StubReplica:
    def __init__(self, replica_id, queue_depth=0):
        self.replica_id = replica_id
        self.queue_depth = queue_depth
        self.alive = True
        self.active = True
        self.draining = False
        self.owner_routed = 0
        self.spill_routed = 0

    @property
    def queue_depth(self):
        return len(self._queue)

    @queue_depth.setter
    def queue_depth(self, depth):
        self._queue = [None] * depth

    @property
    def accepting(self):
        return self.alive and self.active and not self.draining


def make_router(depths, policy=None):
    replicas = [StubReplica(i, d) for i, d in enumerate(depths)]
    router = Router(StubShards(len(depths)), replicas, policy)
    return router, replicas


def request(vertex, request_id=0):
    return InferenceRequest(request_id, vertex, arrival=0.0)


class TestRouting:
    def test_owner_first(self):
        router, replicas = make_router([50, 0, 0, 0])
        # No spillover configured: the owner wins however deep its
        # queue is.
        replica, is_owner = router.route(request(vertex=4))
        assert replica is replicas[0]
        assert is_owner
        assert router.spillovers == 0

    def test_spillover_over_threshold(self):
        policy = RoutingPolicy(spill_threshold=8, remote_penalty=2.0)
        router, replicas = make_router([10, 5, 3, 7], policy)
        # Owner 0 is over threshold; penalized depths are 10 (owner,
        # exempt), 7, 5, 9 -> replica 2 wins.
        replica, is_owner = router.route(request(vertex=0))
        assert replica is replicas[2]
        assert not is_owner
        assert router.spillovers == 1
        assert router.failovers == 0

    def test_busy_owner_still_wins_under_penalty(self):
        policy = RoutingPolicy(spill_threshold=8, remote_penalty=8.0)
        router, replicas = make_router([9, 4, 4, 4], policy)
        # Penalized: owner 9 vs 12/12/12 -> owner keeps the request
        # (and it does not count as a spillover).
        replica, is_owner = router.route(request(vertex=0))
        assert replica is replicas[0]
        assert is_owner
        assert router.spillovers == 0

    def test_spillover_ties_break_to_lower_id(self):
        policy = RoutingPolicy(spill_threshold=4, remote_penalty=0.0)
        router, replicas = make_router([6, 2, 2, 2], policy)
        replica, _ = router.route(request(vertex=0))
        assert replica is replicas[1]

    def test_failover_skips_dead_owner(self):
        router, replicas = make_router([0, 3, 1, 2])
        replicas[0].alive = False
        replica, is_owner = router.route(request(vertex=0))
        assert replica is replicas[2]      # min depth among survivors
        assert not is_owner
        assert router.failovers == 1

    def test_draining_owner_fails_over(self):
        router, replicas = make_router([0, 1])
        replicas[0].draining = True
        replica, is_owner = router.route(request(vertex=0))
        assert replica is replicas[1]
        assert not is_owner

    def test_unroutable_when_all_down(self):
        router, replicas = make_router([0, 0])
        for replica in replicas:
            replica.alive = False
        with pytest.raises(FleetError):
            router.route(request(vertex=0))

    def test_replica_count_must_match_shards(self):
        with pytest.raises(FleetError):
            Router(StubShards(4), [StubReplica(0), StubReplica(1)])

    def test_policy_validation(self):
        with pytest.raises(FleetError):
            RoutingPolicy(spill_threshold=0)
        with pytest.raises(FleetError):
            RoutingPolicy(remote_penalty=-1.0)

    # A NaN threshold fails every ``depth < threshold``: each request
    # the owner would admit would take the spill path instead.
    @pytest.mark.parametrize("threshold", [math.nan, 2.5],
                             ids=["nan", "fraction"])
    def test_spill_threshold_must_be_an_integer(self, threshold):
        with pytest.raises(FleetError, match="spill_threshold"):
            RoutingPolicy(spill_threshold=threshold)


class TestAutoscalePolicy:
    def test_watermark_ordering_enforced(self):
        with pytest.raises(FleetError):
            AutoscalePolicy(high_watermark=2.0, low_watermark=2.0)

    def test_min_replicas_floor(self):
        with pytest.raises(FleetError):
            AutoscalePolicy(min_replicas=0)

    def test_negative_cooldown_rejected(self):
        with pytest.raises(FleetError):
            AutoscalePolicy(cooldown=-1.0)


class TestAutoscaler:
    def make(self, depths, **policy_kwargs):
        policy_kwargs.setdefault("min_replicas", 1)
        policy_kwargs.setdefault("high_watermark", 10.0)
        policy_kwargs.setdefault("low_watermark", 2.0)
        policy_kwargs.setdefault("cooldown", 1.0)
        replicas = [StubReplica(i, d) for i, d in enumerate(depths)]
        scaler = Autoscaler(AutoscalePolicy(**policy_kwargs), replicas)
        return scaler, replicas

    def test_starts_at_min_replicas(self):
        scaler, replicas = self.make([0, 0, 0, 0], min_replicas=2)
        assert [r.active for r in replicas] == [True, True, False,
                                                False]
        assert scaler.active_max == 2

    def test_scales_up_over_high_watermark(self):
        scaler, replicas = self.make([20, 0, 0])
        scaler.evaluate(clock=5.0)
        assert replicas[1].active
        assert not replicas[2].active          # one step per call
        assert scaler.events == [(5.0, "up", 1, 20.0)]
        assert scaler.active_max == 2

    def test_cooldown_blocks_back_to_back_changes(self):
        scaler, replicas = self.make([30, 0, 0], cooldown=1.0)
        scaler.evaluate(clock=5.0)
        scaler.evaluate(clock=5.5)             # inside cooldown
        assert not replicas[2].active
        scaler.evaluate(clock=6.5)             # cooldown elapsed
        assert replicas[2].active

    def test_hysteresis_band_holds_steady(self):
        scaler, replicas = self.make([5, 5], min_replicas=2)
        scaler.evaluate(clock=5.0)             # 2.0 < 5 < 10.0
        assert scaler.events == []

    def test_scales_down_via_drain(self):
        scaler, replicas = self.make([1, 1], min_replicas=1)
        replicas[1].active = True       # as if scaled up earlier
        scaler.evaluate(clock=5.0)
        assert replicas[1].draining            # highest id drains
        assert replicas[1].active              # still serving its queue
        assert scaler.events == [(5.0, "drain", 1, 1.0)]
        # Queue empties -> deactivate.
        replicas[1].queue_depth = 0
        scaler.finalize_drains(clock=6.0)
        assert not replicas[1].active
        assert not replicas[1].draining
        assert scaler.events[-1] == (6.0, "down", 1, 0.0)

    def test_never_drains_below_min(self):
        scaler, replicas = self.make([0, 0], min_replicas=2)
        scaler.evaluate(clock=5.0)
        assert not any(r.draining for r in replicas)

    def test_min_replicas_cannot_exceed_fleet(self):
        with pytest.raises(FleetError):
            self.make([0, 0], min_replicas=3)


class ReplicatedStubShards(StubShards):
    """StubShards plus k-redundant holders: owner + cyclic successors
    (mirrors partition.replication's placement)."""

    replicated = True

    def __init__(self, num_shards, k=2):
        super().__init__(num_shards)
        self.k = k

    def holders(self, vertex):
        owner = self.owner(vertex)
        return [(owner + off) % self.num_shards
                for off in range(self.k)]

    def backups(self, vertex):
        return self.holders(vertex)[1:]


def make_replicated_router(depths, policy=None, k=2):
    replicas = [StubReplica(i, d) for i, d in enumerate(depths)]
    router = Router(ReplicatedStubShards(len(depths), k=k), replicas,
                    policy)
    return router, replicas


class TestReplicatedRouting:
    def test_dead_owner_fails_over_to_backup(self):
        policy = RoutingPolicy(remote_penalty=8.0)
        router, replicas = make_replicated_router([0, 5, 2, 2], policy)
        replicas[0].alive = False
        # vertex 0: owner 0 (dead), backup 1.  Penalized costs:
        # r1 (holder, exempt) 5; r2/r3 2+8=10 -> the backup wins even
        # with the deepest queue among survivors.
        replica, is_owner = router.route(request(vertex=0))
        assert replica is replicas[1]
        assert not is_owner
        assert router.failovers == 1
        assert router.backup_routed == 1

    def test_draining_owner_fails_over_to_backup(self):
        policy = RoutingPolicy(remote_penalty=8.0)
        router, replicas = make_replicated_router([0, 5, 2, 2], policy)
        replicas[0].draining = True
        replica, is_owner = router.route(request(vertex=0))
        assert replica is replicas[1]
        assert not is_owner
        assert router.failovers == 1
        assert router.backup_routed == 1

    def test_backup_exempt_from_penalty_on_spillover(self):
        policy = RoutingPolicy(spill_threshold=4, remote_penalty=8.0)
        router, replicas = make_replicated_router([6, 5, 2, 2], policy)
        # Owner over threshold; costs: owner 6, backup 5 (exempt),
        # r2/r3 10.  The backup's local copy wins the spill.
        replica, is_owner = router.route(request(vertex=0))
        assert replica is replicas[1]
        assert not is_owner
        assert router.spillovers == 1

    def test_non_holder_failover_not_counted_as_backup(self):
        router, replicas = make_replicated_router([0, 9, 0, 0])
        replicas[0].alive = False
        replicas[1].alive = False          # the backup too
        replica, _ = router.route(request(vertex=0))
        assert replica is replicas[2]
        assert router.backup_routed == 0


class TestBreakerRouting:
    def make(self, depths, reset_timeout=1e-3):
        from repro.fleet import BreakerPolicy, CircuitBreaker
        replicas = [StubReplica(i, d) for i, d in enumerate(depths)]
        breakers = [CircuitBreaker(BreakerPolicy(
            reset_timeout=reset_timeout)) for _ in replicas]
        router = Router(StubShards(len(depths)), replicas,
                        breakers=breakers)
        return router, replicas, breakers

    def test_open_breaker_excludes_owner(self):
        router, replicas, breakers = self.make([0, 3])
        router.trip(0, 0.0)
        replica, is_owner = router.route(request(vertex=0), now=5e-4)
        assert replica is replicas[1]
        assert not is_owner
        assert router.failovers == 1

    def test_half_open_probe_after_reset_timeout(self):
        router, replicas, breakers = self.make([0, 3],
                                               reset_timeout=1e-3)
        router.trip(0, 0.0)
        replica, is_owner = router.route(request(vertex=0), now=1.5e-3)
        assert replica is replicas[0]
        assert is_owner
        assert breakers[0].state == "half-open"

    def test_all_breakers_open_is_unroutable(self):
        router, replicas, breakers = self.make([0, 0])
        for rid in range(len(breakers)):
            router.trip(rid, 0.0)
        with pytest.raises(FleetError, match="unroutable"):
            router.route(request(vertex=0), now=1e-4)

    def test_crashed_replicas_breaker_does_not_lapse_while_down(self):
        router, replicas, breakers = self.make([0, 0],
                                               reset_timeout=1e-3)
        router.trip(0, 0.0)
        replicas[0].alive = False
        # Well past reset_timeout, but replica 0 is not accepting:
        # routing never asks its breaker, so it stays open.
        for now in (1e-3, 5e-3, 9e-3):
            replica, _ = router.route(request(vertex=1), now=now)
            assert replica is replicas[1]
        assert breakers[0].state == "open"
        assert breakers[0].half_opens == 0

    def test_recovered_replicas_breaker_lapses_on_first_route(self):
        router, replicas, breakers = self.make([0, 0],
                                               reset_timeout=1e-3)
        router.trip(0, 0.0)
        replicas[0].alive = False
        router.route(request(vertex=1), now=5e-4)
        replicas[0].alive = True
        # Accepting again, but reset_timeout has not passed.
        router.route(request(vertex=1), now=9e-4)
        assert breakers[0].state == "open"
        # The first route at reset_timeout lapses it, whichever
        # replica the request is for, and counts one half-open.
        replica, _ = router.route(request(vertex=1), now=1e-3)
        assert replica is replicas[1]
        assert breakers[0].state == "half-open"
        assert breakers[0].half_opens == 1
        assert breakers[1].state == "closed"
        assert breakers[1].half_opens == 0

    def test_second_route_at_the_same_instant_changes_nothing(self):
        router, replicas, breakers = self.make([0, 0, 0],
                                               reset_timeout=1e-3)
        router.trip(0, 0.0)
        router.trip(2, 5e-4)
        first = router.route(request(vertex=0), now=1e-3)
        states = [(b.state, b.half_opens) for b in breakers]
        assert states == [("half-open", 1), ("closed", 0),
                          ("open", 0)]
        assert router.route(request(vertex=0), now=1e-3) == first
        assert [(b.state, b.half_opens) for b in breakers] == states


class TestOpenSet:
    """The router owns the ids of the open breakers: a trip through it
    adds one, every ``allows`` that lapses one (in ``route``, in
    ``_admits``, in ``route_hedge``) removes it, and a request asks no
    breaker while none is open."""

    make = TestBreakerRouting.make

    @staticmethod
    def record_polls(breakers):
        polled = []
        for rid, breaker in enumerate(breakers):
            def allows(now, rid=rid, ask=breaker.allows):
                polled.append(rid)
                return ask(now)
            breaker.allows = allows
        return polled

    def test_trip_adds_the_id_in_ascending_order(self):
        router, _, breakers = self.make([0, 0, 0, 0])
        assert router._open == []
        router.trip(3, 0.0)
        router.trip(1, 1e-4)
        router.trip(3, 2e-4)          # re-trip: still one entry
        assert router._open == [1, 3]
        assert [b.state for b in breakers] == \
            ["closed", "open", "closed", "open"]
        assert breakers[3].trips == 1

    def test_lapse_through_route_removes_the_id(self):
        router, replicas, breakers = self.make([0, 0],
                                               reset_timeout=1e-3)
        router.trip(1, 0.0)
        router.route(request(vertex=0), now=5e-4)
        assert router._open == [1]
        router.route(request(vertex=0), now=1e-3)
        assert router._open == []
        assert breakers[1].state == "half-open"

    def test_lapse_through_admits_removes_the_id(self):
        router, replicas, breakers = self.make([0, 0],
                                               reset_timeout=1e-3)
        router.trip(0, 0.0)
        assert not router._admits(replicas[0], 5e-4)
        assert router._open == [0]
        assert router._admits(replicas[0], 1e-3)
        assert router._open == []
        assert breakers[0].state == "half-open"

    def test_lapse_through_route_hedge_removes_the_id(self):
        router, replicas, breakers = self.make([0, 0, 0],
                                               reset_timeout=1e-3)
        router.trip(2, 0.0)
        replica, _ = router.route_hedge(request(vertex=0),
                                        exclude={0, 1}, now=1e-3)
        assert replica is replicas[2]
        assert router._open == []
        assert breakers[2].half_opens == 1

    def test_no_breaker_is_asked_while_none_is_open(self):
        router, replicas, breakers = self.make([0, 0, 0])
        polled = self.record_polls(breakers)
        for vertex in range(6):
            router.route(request(vertex=vertex), now=1e-3 * vertex)
        assert polled == []

    def test_open_breakers_of_accepting_replicas_polled_in_id_order(self):
        router, replicas, breakers = self.make([0, 0, 0, 0, 0],
                                               reset_timeout=1e-3)
        for rid, when in ((4, 0.0), (1, 1e-4), (3, 2e-4), (2, 3e-4)):
            router.trip(rid, when)
        replicas[3].alive = False
        polled = self.record_polls(breakers)
        router.route(request(vertex=0), now=5e-4)
        assert polled == [1, 2, 4]
        assert router._open == [1, 2, 3, 4]
        del polled[:]
        # At 1.15 ms breakers 4 and 1 have lapsed, 2 has not: polled in
        # id order, lapsed ids leave, the down replica's stays.
        router.route(request(vertex=0), now=1.15e-3)
        assert polled == [1, 2, 4]
        assert router._open == [2, 3]

    def test_sanitizer_catches_a_trip_outside_the_router(self):
        router, _, breakers = self.make([0, 0])
        breakers[1].trip(0.0)
        with pytest.raises(SanitizerError, match=r"open breakers \[\]"):
            router.route(request(vertex=0), now=1e-4)

    def test_sanitizer_catches_a_lapse_outside_the_router(self):
        router, _, breakers = self.make([0, 0], reset_timeout=1e-3)
        router.trip(1, 0.0)
        assert breakers[1].allows(2e-3)
        with pytest.raises(SanitizerError, match="breakers say"):
            router.route(request(vertex=0), now=2e-3)


class TestRouteHedge:
    def test_excludes_assigned_replicas(self):
        router, replicas = make_replicated_router([0, 5, 2, 2])
        hedged = router.route_hedge(request(vertex=0), exclude={0})
        assert hedged is not None
        replica, is_owner = hedged
        assert replica.replica_id != 0
        assert not is_owner
        # vertex 0's backup (r1) is penalty-exempt: 5 vs 2+8.
        assert replica is replicas[1]
        assert router.backup_routed == 1

    def test_none_when_no_distinct_replica(self):
        router, replicas = make_replicated_router([0, 0], k=2)
        assert router.route_hedge(request(vertex=0),
                                  exclude={0, 1}) is None

    def test_skips_dead_candidates(self):
        router, replicas = make_replicated_router([0, 0, 1, 2])
        replicas[1].alive = False
        replica, _ = router.route_hedge(request(vertex=0), exclude={0})
        assert replica is replicas[2]

    def test_hedge_never_raises_when_empty(self):
        router, replicas = make_router([0, 0])
        for replica in replicas:
            replica.alive = False
        assert router.route_hedge(request(vertex=0),
                                  exclude=set()) is None


class TestAutoscalerReplace:
    def test_activates_standby_for_dead_replica(self):
        replicas = [StubReplica(0), StubReplica(1)]
        scaler = Autoscaler(AutoscalePolicy(min_replicas=1), replicas)
        assert not replicas[1].active
        replicas[0].alive = False
        assert scaler.replace(clock=0.002, dead_id=0)
        assert replicas[1].active
        assert scaler.events[-1] == (0.002, "replace", 1, 0.0)
        assert scaler.active_max == 2

    def test_false_when_no_standby_left(self):
        replicas = [StubReplica(0), StubReplica(1)]
        scaler = Autoscaler(AutoscalePolicy(min_replicas=2), replicas)
        replicas[0].alive = False
        assert not scaler.replace(clock=0.002, dead_id=0)
