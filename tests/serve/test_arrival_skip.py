"""The event loop's third shortcut, case by case: an arrival instant
with nothing to dispatch is passed straight to the next arrival.

``EventLoop.run`` skips an instant's dispatch phase only when that
phase could find nothing to do.  Each test below pins one condition of
the rule on the stub executor of ``test_ready_cache.py`` (fixed service
time ``SERVICE``), so every instant can be worked out by hand; the
generated runs of ``test_loop_invariants.py`` hold the whole loop to
the polling loop it replaced.

Mutations tried (each a one-line edit of ``src/repro/serve/loop.py``,
applied alone to a scratch copy), and the test that kills it:

``after_dispatch`` dropped from the rule
    ``test_never_skips_with_a_dispatched_handler``.
the ``ready_at is None`` scan dropped
    ``test_never_skips_when_an_admission_fills_a_batch`` and
    ``test_never_skips_when_an_admission_makes_a_node_ready``.
``arrival >= soonest`` dropped
    ``test_never_skips_past_a_cached_dispatch_time``.
the heap's next event dropped from the rule
    ``test_never_skips_past_the_heaps_next_event``.
``flushing is not False`` dropped
    ``test_the_first_instant_is_never_skipped``.
no sanitizer check at a passed instant
    ``test_sanitizer_checks_every_passed_instant`` and
    ``test_sanitizer_names_a_stale_time_at_a_passed_instant``.
"""

import pytest

from repro.errors import SanitizerError
from repro.perf import perf_overrides
from repro.serve import loop as loop_module
from repro.serve.loop import FAULT, EventLoop

from .test_ready_cache import SERVICE, completions, node, request


def trace(*arrivals):
    return [request(i, arrival) for i, arrival in enumerate(arrivals)]


def checked_instants(monkeypatch, loop):
    """Record ``loop.clock`` at every sanitizer pass over the nodes."""
    seen = []
    check = loop_module._check_ready_times

    def record(nodes, draining):
        seen.append(loop.clock)
        check(nodes, draining)

    monkeypatch.setattr(loop_module, "_check_ready_times", record)
    return seen


class TestWhenAnInstantIsPassed:
    def test_a_passed_instant_admits_and_is_checked(self, monkeypatch):
        """Arrivals 1 and 2 join a queue whose flush time is cached at
        10.0, so their instants are passed: each request is still
        queued at its own instant and the sanitizer still runs there.
        (Passing is not otherwise observable: it is only taken when
        the dispatch phase would have done nothing.)"""
        n = node(max_batch_size=8, max_wait=10.0)
        loop = EventLoop([n], trace(0.0, 0.1, 0.2, 0.3))
        seen = checked_instants(monkeypatch, loop)
        batches = []
        with perf_overrides(sanitize=True):
            done = completions(loop.run(
                {"batch": [lambda b: batches.append(loop.clock),
                           loop.collect]}))
        # 3 is the last arrival: the loop drains and flushes at 0.3.
        assert done == {i: 0.3 + SERVICE for i in range(4)}
        assert batches == [0.3]
        assert seen[:4] == [0.0, 0.1, 0.2, 0.3]


class TestNeverSkips:
    def test_never_skips_with_a_dispatched_handler(self):
        """The autoscaler settles drains after every dispatch phase:
        with a ``dispatched`` handler every instant reaches one."""
        n = node(max_batch_size=8, max_wait=10.0)
        loop = EventLoop([n], trace(0.0, 0.1, 0.2, 0.3))
        phases = []
        loop.run({"dispatched": [lambda _: phases.append(loop.clock)]})
        assert phases[:4] == [0.0, 0.1, 0.2, 0.3]

    def test_never_skips_when_an_admission_fills_a_batch(self):
        """Request 1 fills the batch at 0.1: it dispatches at 0.1, not
        at the next arrival (0.5)."""
        n = node(max_batch_size=2, max_wait=10.0)
        done = completions(EventLoop([n], trace(0.0, 0.1, 0.5)).run())
        assert done[0] == done[1] == 0.1 + SERVICE
        assert done[2] == 0.5 + SERVICE

    def test_never_skips_when_an_admission_makes_a_node_ready(self):
        """With ``max_wait=0`` request 1 is ready the instant it is
        queued on an idle node (1.0), not at the next arrival."""
        n = node(max_batch_size=4, max_wait=0.0)
        done = completions(EventLoop([n], trace(0.0, 1.0, 1.5)).run())
        assert done == {0: SERVICE, 1: 1.0 + SERVICE, 2: 1.5 + SERVICE}

    def test_never_skips_when_the_last_admission_turns_draining_on(self):
        """The last arrival (0.2) makes the loop drain: the partial
        batch flushes at 0.2 instead of waiting out ``max_wait``."""
        n = node(max_batch_size=8, max_wait=10.0)
        loop = EventLoop([n], trace(0.0, 0.1, 0.2))
        phases = []
        done = completions(loop.run(
            {"batch": [lambda b: phases.append(loop.draining),
                       loop.collect]}))
        assert done == {0: 0.2 + SERVICE, 1: 0.2 + SERVICE,
                        2: 0.2 + SERVICE}
        assert phases == [True]

    def test_never_skips_past_a_cached_dispatch_time(self):
        """Request 0's wait ends at 0.15, between arrivals 1 (0.1) and
        2 (0.2): the batch is cut at 0.15."""
        n = node(max_batch_size=8, max_wait=0.15)
        done = completions(EventLoop([n], trace(0.0, 0.1, 0.2)).run())
        assert done[0] == done[1] == 0.15 + SERVICE

    def test_never_skips_past_the_heaps_next_event(self):
        """An event between two arrivals runs at its own instant."""
        n = node(max_batch_size=8, max_wait=10.0)
        loop = EventLoop([n], trace(0.0, 0.1, 0.2))
        seen = []
        loop.schedule(0.15, FAULT, "mark")
        loop.run({"mark": [lambda _: seen.append(loop.clock)]})
        assert seen == [0.15]

    def test_the_first_instant_is_never_skipped(self):
        """Before the first dispatch phase ``soonest`` is no one's
        minimum: a time cached before the run (here by hand, 0.05) is
        still honoured."""
        n = node(max_batch_size=8, max_wait=0.05)
        loop = EventLoop([n], trace(0.0, 0.1, 0.2))
        n.submit(request(9, 0.0))
        n.refresh(False)                      # ready at 0.05
        done = completions(loop.run())
        assert done[9] == 0.05 + SERVICE


class TestSanitizer:
    def test_sanitizer_checks_every_passed_instant(self, monkeypatch):
        n = node(max_batch_size=64, max_wait=10.0)
        arrivals = [0.01 * i for i in range(20)]
        loop = EventLoop([n], trace(*arrivals))
        seen = checked_instants(monkeypatch, loop)
        with perf_overrides(sanitize=True):
            loop.run()
        assert seen[:len(arrivals)] == arrivals

    def test_sanitizer_names_a_stale_time_at_a_passed_instant(self):
        """An admit handler moves ``free_at`` past the cached flush
        time (10.0) behind the cache's back at 0.1, an instant that is
        passed; request 2 then fills the batch, which resets the stale
        time before any dispatch phase could see it.  Only the check at
        the passed instant catches the write."""
        def run(sanitize):
            n = node(max_batch_size=3, max_wait=10.0)
            loop = EventLoop([n], trace(0.0, 0.1, 0.2, 5.0))

            def poke(r):
                if r.request_id == 1:
                    n.free_at = 20.0          # no ``ready_at = None``

            with perf_overrides(sanitize=sanitize):
                return completions(loop.run({"admit": [n.submit, poke]}))

        assert run(False)[0] == 20.0 + SERVICE
        with pytest.raises(SanitizerError, match="node 0"):
            run(True)
