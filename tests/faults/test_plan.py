"""Unit tests for fault plans and the deterministic injector."""

import numpy as np
import pytest

from repro.errors import FaultError, ReproError
from repro.faults import FAULT_KINDS, FaultEvent, FaultInjector, FaultPlan


class TestFaultEvent:
    def test_known_kinds(self):
        assert set(FAULT_KINDS) == {"halt", "crash", "straggler",
                                    "flaky", "slowlink"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent(kind="meteor", epoch=0)

    def test_worker_kinds_need_worker(self):
        with pytest.raises(FaultError):
            FaultEvent(kind="crash", epoch=1)

    def test_cluster_kinds_reject_worker(self):
        with pytest.raises(FaultError):
            FaultEvent(kind="slowlink", epoch=1, worker=0)

    def test_magnitude_validation(self):
        with pytest.raises(FaultError):
            FaultEvent(kind="straggler", epoch=0, worker=0, magnitude=0.5)
        with pytest.raises(FaultError):
            FaultEvent(kind="flaky", epoch=0, worker=0, magnitude=1.0)
        with pytest.raises(FaultError):
            FaultEvent(kind="slowlink", epoch=0, magnitude=0.0)

    def test_window_active(self):
        plan = FaultPlan(events=(FaultEvent(
            kind="straggler", epoch=2, worker=0, duration=3,
            magnitude=2.0),))
        assert [plan.multipliers(0, e)[0] for e in range(6)] == \
            [1.0, 1.0, 2.0, 2.0, 2.0, 1.0]

    def test_instantaneous_active(self):
        # A crash is one instant on the timeline: (time, worker, down).
        plan = FaultPlan(events=(FaultEvent(kind="crash", epoch=2,
                                            worker=1),))
        assert plan.crashes == ((2.0, 1, 1.0),)
        assert plan.multipliers(1, 2) == (1.0, 1.0)

    @pytest.mark.parametrize("field", ["epoch", "duration", "magnitude"])
    def test_nan_rejected(self, field):
        values = dict(kind="straggler", epoch=0, worker=0, duration=1,
                      magnitude=2.0)
        values[field] = float("nan")
        with pytest.raises(FaultError, match="nan"):
            FaultEvent(**values)

    def test_infinite_start_rejected(self):
        with pytest.raises(FaultError, match="finite"):
            FaultEvent(kind="crash", epoch=float("inf"), worker=0)

    def test_infinite_duration_is_a_fleet_window(self):
        event = FaultEvent(kind="straggler", epoch=1, worker=0,
                           duration=float("inf"), magnitude=3.0)
        plan = FaultPlan(events=(event,))
        assert plan.multipliers(0, 1e12) == (3.0, 1.0)

    def test_fault_error_is_repro_error(self):
        assert issubclass(FaultError, ReproError)


class TestFaultPlanParse:
    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "halt@4,crash@2:w1,straggler@1+3:w0:x4,"
            "flaky@0+2:w2:p0.25,slowlink@3:x0.5", seed=7)
        kinds = [e.kind for e in plan]
        assert kinds == ["halt", "crash", "straggler", "flaky",
                         "slowlink"]
        assert plan.seed == 7
        straggler = plan.events[2]
        assert (straggler.epoch, straggler.duration,
                straggler.worker, straggler.magnitude) == (1, 3, 0, 4.0)

    def test_describe_round_trips(self):
        spec = "straggler@1+3:w0:x4,crash@2:w1,slowlink@3:x0.5"
        plan = FaultPlan.parse(spec, seed=3)
        replay = FaultPlan.parse(plan.describe().split(" [")[0], seed=3)
        assert replay == plan

    def test_bad_tokens_rejected(self):
        for spec in ("straggler", "crash@x:w0", "flaky@1:w0:q9",
                     "crash@1"):
            with pytest.raises(FaultError):
                FaultPlan.parse(spec)

    def test_non_integer_worker_field(self):
        with pytest.raises(FaultError, match="'wx' needs an integer"):
            FaultPlan.parse("crash@1:wx")

    def test_non_numeric_magnitude_field(self):
        with pytest.raises(FaultError, match="'xfoo' needs a number"):
            FaultPlan.parse("straggler@0:w0:xfoo")

    def test_fractional_worker_field(self):
        with pytest.raises(FaultError, match="'w1.5' needs an integer"):
            FaultPlan.parse("crash@1:w1.5")

    @pytest.mark.parametrize("spec", ["crash@nan:w0",
                                      "straggler@0:w0:xnan",
                                      "straggler@0+nan:w0:x2",
                                      "crash@inf:w0"])
    def test_nan_and_infinite_start_rejected(self, spec):
        with pytest.raises(FaultError):
            FaultPlan.parse(spec)

    def test_plan_is_immutable(self):
        plan = FaultPlan.parse("halt@1")
        with pytest.raises(AttributeError):
            plan.seed = 5


class TestFaultInjector:
    def test_halt_raises_once_per_epoch(self):
        injector = FaultInjector("halt@2")
        injector.begin_epoch(0)
        injector.begin_epoch(1)
        with pytest.raises(FaultError):
            injector.begin_epoch(2)
        assert injector.halts_fired == 1

    def test_disarm_for_resume_covers_killing_halt(self):
        # Sparse-checkpoint resume: the run restarts at epoch 2, before
        # the halt@3 that killed it; the replayed halt must not re-fire
        # but the independent halt@5 must.
        injector = FaultInjector("halt@3,halt@5")
        injector.disarm_for_resume(2)
        injector.begin_epoch(3)
        with pytest.raises(FaultError):
            injector.begin_epoch(5)

    def test_crashed_workers_accumulate(self):
        # Crashes compile in time order, whatever the spec order.
        plan = FaultInjector("crash@3:w2,crash@1:w0").plan
        assert plan.crashes == ((1.0, 0, 1.0), (3.0, 2, 1.0))

    def test_multipliers_compose(self):
        plan = FaultInjector(
            "straggler@0+2:w1:x2,straggler@1:w1:x3,slowlink@0+2:x0.5,"
            "slowlink@1:x0.5").plan
        assert plan.multipliers(1, 0) == (2.0, 0.5)
        assert plan.multipliers(0, 0) == (1.0, 0.5)
        assert plan.multipliers(None, 0) == (1.0, 0.5)
        assert plan.multipliers(1, 1) == (6.0, 0.25)

    def test_flaky_probability_composes(self):
        injector = FaultInjector("flaky@0:w0:p0.5,flaky@0:w0:p0.5")
        injector.begin_epoch(0)
        assert injector.fetch_failure_prob(0) == pytest.approx(0.75)
        assert injector.fetch_failure_prob(1) == 0.0

    def test_queries_before_begin_epoch_rejected(self):
        injector = FaultInjector("flaky@0:w0:p0.5")
        with pytest.raises(FaultError):
            injector.fetch_failure_prob(0)

    def test_fetch_draws_deterministic_per_epoch(self):
        def draws(seed, epoch, n=32):
            injector = FaultInjector(
                FaultPlan.parse("flaky@0+10:w0:p0.4", seed=seed))
            injector.begin_epoch(epoch)
            return [injector.fetch_attempt_fails(0) for _ in range(n)]

        assert draws(0, 1) == draws(0, 1)
        assert draws(0, 1) != draws(0, 2)
        assert draws(0, 1) != draws(9, 1)
        assert any(draws(0, 1)) and not all(draws(0, 1))

    def test_begin_epoch_resets_streams(self):
        injector = FaultInjector("flaky@0+10:w0:p0.4")
        injector.begin_epoch(3)
        first = [injector.fetch_attempt_fails(0) for _ in range(16)]
        injector.begin_epoch(3)
        assert [injector.fetch_attempt_fails(0)
                for _ in range(16)] == first

    def test_healthy_fetches_never_fail(self):
        injector = FaultInjector(FaultPlan())
        injector.begin_epoch(0)
        assert not any(injector.fetch_attempt_fails(0)
                       for _ in range(64))

    def test_injector_rejects_non_plan(self):
        with pytest.raises(FaultError):
            FaultInjector(42)


class TestFractionalTimes:
    """The grammar serves two clocks: integer epochs (training) and
    fractional seconds (the fleet).  Parsing accepts both; the
    training injector rejects the fractional ones."""

    def test_parse_keeps_fractional_seconds(self):
        plan = FaultPlan.parse("crash@0.0015+0.002:w1")
        (event,) = list(plan)
        assert event.epoch == pytest.approx(0.0015)
        assert event.duration == pytest.approx(0.002)
        assert event.worker == 1

    def test_integral_times_parse_as_ints(self):
        (event,) = list(FaultPlan.parse("crash@3+2:w0"))
        assert event.epoch == 3 and isinstance(event.epoch, int)
        assert event.duration == 2

    def test_injector_rejects_fractional_epoch(self):
        plan = FaultPlan.parse("crash@0.5+1:w0")
        with pytest.raises(FaultError, match="fractional times"):
            FaultInjector(plan)

    def test_injector_rejects_fractional_duration(self):
        plan = FaultPlan.parse("straggler@2+0.5:w0:x4")
        with pytest.raises(FaultError, match="fractional times"):
            FaultInjector(plan)

    @pytest.mark.parametrize("spec", ["straggler@0+inf:w0:x2",
                                      "slowlink@1+inf:x0.5"])
    def test_injector_rejects_infinite_duration(self, spec):
        # Fine on the fleet's seconds clock; not an epoch count.
        with pytest.raises(FaultError, match="fractional times"):
            FaultInjector(FaultPlan.parse(spec))

    def test_injector_accepts_integral_floats(self):
        # 2.0 == int(2.0): integral floats are fine on the epoch clock.
        plan = FaultPlan(events=(
            FaultEvent(kind="crash", epoch=2.0, worker=0,
                       duration=1.0),))
        FaultInjector(plan)

    def test_fractional_describe_round_trips(self):
        spec = "straggler@0.001+0.004:w2:x8"
        (event,) = list(FaultPlan.parse(spec))
        assert event.describe() == spec
