"""The hedge lane hands out the timers per-request events would have.

A hedged fleet run used to schedule one ``hedge`` timer event per
request, and nearly all of them fired after their request had been
answered.  ``_FleetRun`` now keeps the timers on a lane of its own (a
FIFO of ``(fire_time, request)``, in which a copy due before the tail
goes to its place by bisection) and holds one ``hedges``
event on the loop's heap at the lane's earliest fire time; when it
fires, every timer due goes to ``on_hedge``, the answered heads are
dropped unvisited, and the next event is armed at the new head.

Each case below drives the lane of a real ``_FleetRun`` through a real
``EventLoop`` (one node that never dispatches) and, beside it, the
per-request timers the lane replaced, on the same script of admissions
(each with its hedge delay) and answers (``RESPONSE``-phase events,
which run before a same-instant timer).  What ``on_hedge`` is handed
for a request still unanswered — the only case in which it acts — must
be the same ``(clock, request)`` sequence, in the same order.  The
lane's own bookkeeping is held to its rules too: no two ``hedges``
events at one instant, and an event is only armed at an unanswered
head.  ``tests/serve/test_loop_invariants.py`` compares whole generated
fleet runs with the per-request timers of ``tests/fleet/_chaos_oracle.py``.

Mutations tried (each a one-line edit of ``src/repro/fleet/engine.py``,
applied alone to a scratch copy), and the tests that kill them:

``<`` → ``<=`` when a first copy arms the lane
    ``test_matches_per_request_timers`` (two events at one instant)
    and ``test_equal_fire_times_share_one_event``.
no drop of the answered heads
    ``test_matches_per_request_timers`` (an event armed at an answered
    head) and ``test_answered_heads_are_never_visited``.
no re-arm after an event fires
    ``test_matches_per_request_timers``,
    ``test_answered_heads_are_never_visited`` and
    ``test_an_answer_at_the_fire_instant_lands_first``.
an ``append`` in place of the bisection for a copy due before the tail
    ``test_matches_per_request_timers``,
    ``test_a_smaller_delay_arms_ahead_of_the_armed_event``,
    ``test_shrinking_delay_fires_as_per_request_timers`` and
    ``test_out_of_order_copies_fire_as_per_request_timers``.
``bisect_left`` in place of ``bisect_right``
    ``test_shrinking_delay_fires_as_per_request_timers`` (a copy due
    with an earlier one fires ahead of it).
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetEngine, ResiliencePolicy
from repro.fleet.engine import ANSWERED, _FleetRun
from repro.graph import load_dataset
from repro.nn import build_model
from repro.serve import InferenceRequest
from repro.serve.loop import RESPONSE, TIMER, EventLoop

INF = float("inf")


class IdleNode:
    """A node with nothing to dispatch, ever (admission is the
    script's, so nothing is submitted to it)."""

    node_id = 0
    ready_at = INF

    def submit(self, request):
        raise AssertionError("the script admits every request")

    def refresh(self, draining):
        self.ready_at = INF
        return INF


class HoldsACopy:
    """What ``on_admit`` returns for a queued copy."""

    replica_id = 0


class InsertCounting(deque):
    """A hedge lane counting the copies that went to their place by
    bisection (due before the lane's tail)."""

    inserts = 0

    def insert(self, index, value):
        self.inserts += 1
        super().insert(index, value)


class ArmingLoop(EventLoop):
    """An event loop recording each ``hedges`` event armed as ``(time,
    head fire time, head answered)``: the event's time and, as it is
    armed, the lane's head's fire time and whether its request has been
    answered."""

    run_state = None

    def schedule(self, time, phase, kind, payload=None):
        if kind == "hedges":
            run = self.run_state
            fire_time, request = run._lane[0]
            self.armed.append(
                (time, fire_time,
                 run.fate.get(request.request_id) == ANSWERED))
        super().schedule(time, phase, kind, payload)


@pytest.fixture(scope="module")
def engine():
    data = load_dataset("ogb-arxiv", scale=0.1)
    model = build_model("gcn", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(0))
    return FleetEngine(data, model, partition="hash", num_replicas=2,
                       resilience=ResiliencePolicy())


def requests_of(script):
    return [InferenceRequest(rid, 0, float(arrival))
            for rid, (arrival, _, _) in enumerate(script)]


def hedged_requests(engine, script, lane):
    """``[(clock, request_id)]`` handed to ``on_hedge`` for requests not
    yet answered, with the lane (``lane=True``) or one timer event per
    request, and the run's ``_FleetRun``.

    ``script`` holds one ``(arrival, delay, answered_at)`` per request,
    in arrival order: ``delay`` is the hedge delay at its admission
    (``None``: too few latencies yet, no timer), ``answered_at`` when
    its answer lands (``None``: never)."""
    trace = requests_of(script)
    run = _FleetRun(engine, trace)
    run._lane = InsertCounting()
    loop = run.loop = ArmingLoop([IdleNode()], trace)
    loop.run_state, loop.armed = run, []
    handed = []

    def on_hedge(request):
        if run.fate.get(request.request_id) != ANSWERED:
            handed.append((loop.clock, request.request_id))

    def answer(request_id):
        run.fate[request_id] = ANSWERED

    def admit(request):
        _, delay, answered_at = script[request.request_id]
        if answered_at is not None:
            loop.schedule(answered_at, RESPONSE, "answer",
                          request.request_id)
        if lane:
            run._delay, run._delay_observed = delay, len(run.latencies)
            run.on_admit_hedged(request)
        elif delay is not None:
            loop.schedule(loop.clock + delay, TIMER, "hedge", request)

    run.on_admit = lambda request: HoldsACopy()
    run.on_hedge = on_hedge
    loop.run({"admit": [admit], "answer": [answer],
              "hedges": [run.on_hedges], "hedge": [on_hedge]})
    return handed, run


def lane_and_timers(engine, script):
    """Both runs of ``script``; asserts they hand out the same timers
    and the lane kept its rules (:func:`check_lane_rules`), and returns
    the lane run's ``(handed, run)``."""
    handed, run = hedged_requests(engine, script, lane=True)
    expected, _ = hedged_requests(engine, script, lane=False)
    assert handed == expected
    check_lane_rules(run)
    return handed, run


def check_lane_rules(run):
    """The lane's bookkeeping rules, over one finished run: one event
    per instant, each armed at the lane's head while that head's
    request is unanswered, and nothing left over."""
    armed = run.loop.armed
    times = [time for time, _, _ in armed]
    assert len(set(times)) == len(times), "two events at one instant"
    for time, head_time, head_answered in armed:
        assert time == head_time, "an event armed off the lane's head"
        assert not head_answered, "an event armed at an answered head"
    assert not run._lane and run._armed_times == [INF]


def armed_times(run):
    return [time for time, _, _ in run.loop.armed]


@st.composite
def scripts(draw):
    """Admissions on a coarse grid (so fire times tie), delays rising
    and falling, answers before, at and after the timer, or never."""
    size = draw(st.integers(1, 14))
    arrivals = sorted(draw(st.lists(st.integers(0, 12), min_size=size,
                                    max_size=size)))
    script = []
    for arrival in arrivals:
        delay = draw(st.one_of(st.none(), st.integers(1, 8)))
        answer = draw(st.one_of(st.none(), st.integers(0, 12)))
        answered_at = None if answer is None else arrival + answer / 2
        script.append((arrival, None if delay is None else float(delay),
                       answered_at))
    return script


@settings(max_examples=150, deadline=None)
@given(script=scripts())
def test_matches_per_request_timers(engine, script):
    lane_and_timers(engine, script)


def test_a_smaller_delay_arms_ahead_of_the_armed_event(engine):
    """Request 0 arms the lane at 10; request 1, admitted at 1 with a
    delay of 2, is due at 3 and must arm an event ahead of it."""
    handed, run = lane_and_timers(engine, [(0, 10.0, None),
                                           (1, 2.0, None)])
    assert handed == [(3.0, 1), (10.0, 0)]
    assert armed_times(run) == [10.0, 3.0]


def test_equal_fire_times_share_one_event(engine):
    """Three timers due at 5 (delays 5, 4, 3) go out in arming order
    from one event."""
    handed, run = lane_and_timers(engine, [(0, 5.0, None),
                                           (1, 4.0, None),
                                           (2, 3.0, None)])
    assert handed == [(5.0, 0), (5.0, 1), (5.0, 2)]
    assert armed_times(run) == [5.0]


def test_answered_heads_are_never_visited(engine):
    """Ten requests, one a second, each answered half a second after
    it arrives, save the last: the lane fires once at the first timer,
    drops the eight answered heads behind it and fires once more for
    the one request still unanswered."""
    script = [(t, 10.0, t + 0.5) for t in range(9)] + [(9, 10.0, None)]
    handed, run = lane_and_timers(engine, script)
    assert handed == [(19.0, 9)]
    assert armed_times(run) == [10.0, 19.0]


def test_an_answer_at_the_fire_instant_lands_first(engine):
    """A response at the timer's own instant runs in an earlier phase,
    so the timer finds the request answered."""
    handed, _ = lane_and_timers(engine, [(0, 4.0, 4.0), (1, 4.0, None)])
    assert handed == [(5.0, 1)]


def test_no_delay_yet_arms_nothing(engine):
    handed, run = lane_and_timers(engine, [(0, None, None),
                                           (1, None, 2.0)])
    assert handed == [] and run.loop.armed == []


def test_shrinking_delay_fires_as_per_request_timers(engine):
    """The delay shrinks faster than the clock moves: requests 2 and 3
    are due at 5, before the lane's tail at 10, and go to their place
    by bisection, 3 after 2 (the timer armed first fires first)."""
    handed, run = lane_and_timers(engine, [(0, 10.0, None),
                                           (1, 9.0, None),
                                           (2, 3.0, None),
                                           (3, 2.0, None),
                                           (4, 8.0, None)])
    assert handed == [(5.0, 2), (5.0, 3), (10.0, 0), (10.0, 1),
                      (12.0, 4)]
    assert run._lane.inserts == 2
    assert armed_times(run) == [10.0, 5.0, 12.0]


@st.composite
def shrinking_scripts(draw):
    """Delays that only shrink, every request with one, and at least
    two admissions at one instant, so that at least one copy is due
    before the lane's tail."""
    size = draw(st.integers(2, 12))
    arrivals = sorted(draw(st.lists(st.integers(0, 6), min_size=size,
                                    max_size=size)))
    tie = draw(st.integers(0, size - 2))
    arrivals[tie + 1] = arrivals[tie]
    delays = sorted(draw(st.lists(st.integers(1, 24), min_size=size,
                                  max_size=size, unique=True)),
                    reverse=True)
    script = []
    for arrival, delay in zip(arrivals, delays):
        answer = draw(st.one_of(st.none(), st.integers(0, 30)))
        script.append((arrival, float(delay),
                       None if answer is None else arrival + answer / 2))
    return script


@settings(max_examples=100, deadline=None)
@given(script=shrinking_scripts())
def test_out_of_order_copies_fire_as_per_request_timers(engine, script):
    _, run = lane_and_timers(engine, script)
    assert run._lane.inserts > 0
