"""The chaos harness's composable fault schedules and the bench's
input validation.  The full certification (gates, sweeps) lives in
``benchmarks/bench_fleet_chaos.py`` — here we pin the composers'
shapes and their round-trip through the shared ``faults.plan``
grammar."""

import pytest

from repro.errors import ServingError
from repro.faults.plan import FaultPlan
from repro.fleet.chaos import (QUICK_OVERRIDES, crash_storm, flapping,
                               rolling_stragglers,
                               run_fleet_chaos_bench, slowlink_window)


class TestCrashStorm:
    def test_crashes_in_id_order(self):
        plan = crash_storm(4, start=0.001, down=0.002, count=3,
                           spacing=0.0005)
        events = list(plan)
        assert [e.kind for e in events] == ["crash"] * 3
        assert [e.worker for e in events] == [0, 1, 2]
        assert [e.epoch for e in events] \
            == [0.001, 0.0015, 0.002]
        assert all(e.duration == 0.002 for e in events)

    def test_zero_spacing_is_simultaneous(self):
        plan = crash_storm(4, start=0.001, down=0.002)
        assert len(plan) == 2
        assert {e.epoch for e in plan} == {0.001}

    def test_count_wraps_around_fleet(self):
        plan = crash_storm(2, start=0.001, down=0.001, count=3,
                           spacing=0.001)
        assert [e.worker for e in plan] == [0, 1, 0]


class TestRollingStragglers:
    def test_consecutive_windows(self):
        plan = rolling_stragglers(4, start=0.001, duration=0.002,
                                  magnitude=8.0)
        events = list(plan)
        assert len(events) == 4
        assert [e.worker for e in events] == [0, 1, 2, 3]
        # Window i starts exactly where window i-1 ends.
        for prev, event in zip(events, events[1:]):
            assert event.epoch == pytest.approx(
                prev.epoch + prev.duration)
        assert all(e.magnitude == 8.0 for e in events)

    def test_explicit_count(self):
        plan = rolling_stragglers(4, start=0.001, duration=0.001,
                                  count=2)
        assert len(plan) == 2


class TestFlapping:
    def test_down_defaults_to_half_period(self):
        plan = flapping(1, start=0.002, period=0.004)
        events = list(plan)
        assert len(events) == 3
        assert all(e.worker == 1 for e in events)
        assert all(e.duration == 0.002 for e in events)
        assert [e.epoch for e in events] == [0.002, 0.006, 0.010]

    def test_explicit_down(self):
        plan = flapping(0, start=0.001, period=0.004, count=2,
                        down=0.0005)
        assert all(e.duration == 0.0005 for e in plan)


class TestSlowlinkWindow:
    def test_single_fleetwide_event(self):
        plan = slowlink_window(0.002, 0.004, magnitude=0.25)
        (event,) = list(plan)
        assert event.kind == "slowlink"
        assert event.worker is None
        assert event.magnitude == 0.25


class TestGrammarRoundTrip:
    """Composed plans print in the shared spec grammar and parse back
    (with "nice" numbers — describe() uses %g formatting)."""

    @pytest.mark.parametrize("plan", [
        crash_storm(4, start=0.001, down=0.002, count=2,
                    spacing=0.0005),
        rolling_stragglers(4, start=0.001, duration=0.002),
        flapping(0, start=0.001, period=0.004),
        slowlink_window(0.002, 0.004),
    ])
    def test_describe_parse_identity(self, plan):
        # describe() appends a " [seed=N]" suffix the parser does not
        # take; round-trip the comma-joined event specs.
        spec = ",".join(e.describe() for e in plan)
        parsed = FaultPlan.parse(spec)
        assert ",".join(e.describe() for e in parsed) == spec
        assert [(e.kind, e.worker) for e in parsed] \
            == [(e.kind, e.worker) for e in plan]
        for got, want in zip(parsed, plan):
            assert got.epoch == pytest.approx(want.epoch)
            assert got.duration == pytest.approx(want.duration)
            assert got.magnitude == pytest.approx(want.magnitude)

    def test_composed_plans_compile_to_fleet_schedules(self):
        plan = rolling_stragglers(4, start=0.001, duration=0.002,
                                  magnitude=4.0)
        assert plan.multipliers(2, 0.006) == (4.0, 1.0)
        assert plan.multipliers(2, 0.009) == (1.0, 1.0)


class TestBenchValidation:
    # Both raises fire before any dataset loads, so these are cheap.
    def test_replication_out_of_range(self):
        with pytest.raises(ServingError, match="replication"):
            run_fleet_chaos_bench(num_replicas=4, replication=5)
        with pytest.raises(ServingError, match="replication"):
            run_fleet_chaos_bench(num_replicas=4, replication=0)

    def test_rate_multiplier_at_least_one(self):
        with pytest.raises(ServingError, match="rate_multiplier"):
            run_fleet_chaos_bench(rate_multiplier=0.5)

    def test_slo_positive(self):
        with pytest.raises(ServingError, match="slo"):
            run_fleet_chaos_bench(slo=0.0)

    def test_quick_overrides_shrink_the_run(self):
        assert QUICK_OVERRIDES["scale"] < 0.3
        assert QUICK_OVERRIDES["num_requests"] < 1200
        assert set(QUICK_OVERRIDES) == {
            "scale", "train_epochs", "num_requests",
            "rate_multiplier"}
