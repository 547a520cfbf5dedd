"""The event loop's two shortcuts, case by case: a node's cached
dispatch time (``ServeNode.ready_at``) and trace arrivals merged past
the event heap.

``test_loop_invariants.py`` holds the shipped loop to the polling loop
it replaced over generated configurations; this file pins the rules
those runs rely on, one per test, on a stub executor with a fixed
service time so every instant below can be worked out by hand.

Mutations tried (each a one-line edit of ``src/repro/serve/loop.py`` or
``fleet/replica.py``, applied alone to a scratch copy).  "sanitizer"
is the ``SanitizerError`` the loop raises under ``FLAGS.sanitize``,
which the whole suite runs with.  The generated runs of
``test_loop_invariants.py`` (oracle + sanitizer) reach some of these
only on the examples hypothesis happens to draw, so each rule also has
a directed test here; that is the one named.

``cancel`` does not reset ``ready_at``
    ``test_cancel_resets_the_cache``.  End to end it is ``repro bench
    fleet-chaos``: ``ServingError: take() from an empty batch queue``
    (sanitized: ``SanitizerError`` on node 0).
``draining`` setter does not reset
    ``test_draining_setter_resets_the_cache``.  In a run it is a
    silently late batch — no error, only the oracle comparison or the
    sanitizer can see it.
``crash`` / ``recover`` does not reset
    ``tests/fleet/test_replica.py::test_crash_and_recover_reset_the_
    cached_dispatch_time``; ``crash`` also dies in
    ``test_fleet_engine_conserves_requests`` (sanitizer).  A recovered
    node's queue is empty unless something submitted to it while it was
    down, so only the directed test reaches ``recover``.
``dispatch`` does not reset
    ``test_first_and_filling_submit_reset_the_cache`` and, through the
    sanitizer, every engine test.
``submit``: ``depth == 0`` for ``== 1``; no reset on a full batch
    ``test_first_and_filling_submit_reset_the_cache``; the first also
    ``test_serve_engine_conserves_requests`` (sanitizer).
loop-wide flag compared once (``if draining and not flushing``)
    ``test_loop_wide_flag_can_turn_back_off`` (sanitizer on: the
    error; off: request 2 completes at 0.5 instead of 1.35).
merge key phase ``ADMIT`` -> ``FAULT``; times only (``arrival <=``
head time)
    ``test_arrival_keeps_its_phase_among_same_instant_events``.
merge ``<`` -> ``<=`` on the ``(time, phase, seq)`` key
    Equivalent, not killable: trace indices and scheduled seqs never
    collide, so two keys never tie.  (The tie-break that *can* be
    wrong is the phase, above.)
"""

import numpy as np
import pytest

from repro.errors import SanitizerError
from repro.perf import perf_overrides
from repro.serve import BatchPolicy
from repro.serve.loop import (ADMIT, FAULT, RESPONSE, TIMER, EventLoop,
                              ServeNode)
from repro.serve.requests import InferenceRequest

SERVICE = 0.25


class FixedServiceExecutor:
    """Answers 0 for every vertex in ``SERVICE`` simulated seconds."""

    last_remote_rows = 0
    last_remote_seconds = 0.0

    def execute(self, vertices, _rng):
        return np.zeros(len(vertices), dtype=np.int64), 0.0, SERVICE, 0.0


def request(i, arrival):
    return InferenceRequest(request_id=i, vertex=i, arrival=arrival)


def node(max_batch_size=2, max_wait=1.0):
    return ServeNode(FixedServiceExecutor(),
                     BatchPolicy(max_batch_size, max_wait))


def completions(responses):
    return {r.request.request_id: r.completion for r in responses}


class TestWhoResetsTheCache:
    def test_first_and_filling_submit_reset_the_cache(self):
        n = node(max_batch_size=3, max_wait=1.0)
        assert n.refresh(False) == float("inf")
        n.submit(request(0, 0.5))             # 0 -> 1: the wait starts
        assert n.ready_at is None
        assert n.refresh(False) == 1.5
        n.submit(request(1, 0.6))             # neither first nor full
        assert n.ready_at == 1.5
        n.submit(request(2, 0.7))             # fills the batch
        assert n.ready_at is None
        assert n.refresh(False) == 0.0
        n.submit(request(3, 0.8))             # already full: unchanged
        assert n.ready_at == 0.0
        row = n.dispatch(0.7)
        assert [r.request_id for r in row.requests] == [0, 1, 2]
        assert row.completion == 0.7 + SERVICE and row.batch_size == 3
        assert n.ready_at is None
        assert n.refresh(False) == 1.8        # request 3 waits from 0.8

    def test_a_rejected_submit_changes_nothing(self):
        n = ServeNode(FixedServiceExecutor(), BatchPolicy(4, 1.0),
                      max_queue=1)
        assert n.submit(request(0, 0.0))
        n.refresh(False)
        assert not n.submit(request(1, 0.1))
        assert n.ready_at == 1.0 and n.rejected == 1
        assert n.depth_stats() == (1, 1, 1)   # one admission, depth 1

    def test_cancel_resets_the_cache(self):
        n = node(max_batch_size=4)
        n.submit(request(0, 0.0))
        n.submit(request(1, 0.4))
        assert n.refresh(False) == 1.0
        assert not n.cancel(7)                # not queued here
        assert n.refresh(False) == 1.0
        assert n.cancel(0)                    # the head leaves
        assert n.ready_at is None
        assert n.refresh(False) == 1.4

    def test_draining_setter_resets_the_cache(self):
        n = node(max_batch_size=4)
        n.submit(request(0, 0.0))
        assert n.refresh(False) == 1.0
        n.draining = True                     # flush without waiting
        assert n.ready_at is None
        assert n.refresh(False) == 0.0
        n.draining = False
        assert n.ready_at is None

    def test_sanitizer_names_a_write_that_skipped_the_reset(self):
        """A handler moves ``free_at`` behind the cache's back: silent
        (and wrong) with the sanitizer off, a ``SanitizerError`` with
        it on."""
        def run(sanitize):
            n = node(max_batch_size=4, max_wait=0.1)
            loop = EventLoop([n], [request(0, 0.0), request(1, 5.0)])

            def poke(_):
                n.free_at = 2.0               # no ``ready_at = None``

            loop.schedule(0.05, FAULT, "poke")
            with perf_overrides(sanitize=sanitize):
                return completions(loop.run({"poke": [poke]}))

        # Stale: dispatched at 0.1, although the node was busy until 2.
        assert run(False)[0] == 0.1 + SERVICE
        with pytest.raises(SanitizerError, match="node 0"):
            run(True)


class TestLoopWideDraining:
    def test_partial_batch_flushes_once_nothing_is_outstanding(self):
        n = node(max_batch_size=4, max_wait=1.0)
        done = completions(EventLoop([n], [request(0, 0.0)]).run())
        assert done == {0: SERVICE}           # did not wait out 1.0

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_loop_wide_flag_can_turn_back_off(self, sanitize):
        """The last arrival makes the loop drain, a fault handler then
        schedules a re-submission: the flag is off again, and a node
        whose time was cached while it was on must wait out
        ``max_wait`` after all."""
        n = node(max_batch_size=2, max_wait=1.0)
        trace = [request(0, 0.0), request(1, 0.0), request(2, 0.1)]
        loop = EventLoop([n], trace)

        def resubmit(_):
            loop.schedule(5.0, ADMIT, "admit", request(3, 5.0))

        loop.schedule(0.2, FAULT, "resubmit")
        with perf_overrides(sanitize=sanitize):
            done = completions(loop.run({"resubmit": [resubmit]}))
        # 0 and 1 fill a batch at 0.0 (busy until 0.25).  2 arrives
        # last: draining, ready at 0.25 — until 0.2 turns the flag off,
        # so it waits until 0.1 + max_wait.  3 drains at once.
        assert done == {0: SERVICE, 1: SERVICE, 2: 1.1 + SERVICE,
                        3: 5.0 + SERVICE}


class TestMergedArrivals:
    def test_arrival_keeps_its_phase_among_same_instant_events(self):
        """An arrival is an ``ADMIT`` event with its trace index as
        seq: at one instant it runs after faults and responses, before
        a re-submission scheduled for that instant and before timers."""
        n = node(max_batch_size=8, max_wait=10.0)
        loop = EventLoop([n], [request(0, 1.0), request(1, 1.0)])
        order = []
        for phase, kind in ((TIMER, "timer"), (ADMIT, "admit"),
                            (RESPONSE, "response"), (FAULT, "fault")):
            loop.schedule(1.0, phase, kind, request(9, 1.0))
        loop.schedule(0.5, TIMER, "timer", request(8, 0.5))

        def note(kind):
            return [lambda payload: order.append(
                (kind, payload.request_id))]

        loop.run({kind: note(kind)
                  for kind in ("fault", "response", "timer")}
                 | {"admit": note("admit") + [n.submit]})
        assert order == [("timer", 8), ("fault", 9), ("response", 9),
                         ("admit", 0), ("admit", 1), ("admit", 9),
                         ("timer", 9)]

    def test_an_event_in_the_past_runs_before_a_later_arrival(self):
        n = node(max_batch_size=8, max_wait=0.0)
        loop = EventLoop([n], [request(0, 1.0), request(1, 2.0)])
        seen = []

        def late(_):
            # Scheduled at 1.0 for an instant already gone.
            loop.schedule(0.5, FAULT, "mark")

        loop.schedule(1.0, FAULT, "late")
        loop.run({"late": [late],
                  "mark": [lambda _: seen.append(loop.clock)],
                  "admit": [lambda r: seen.append(r.request_id),
                            n.submit]})
        assert seen == [1.0, 0, 1]
