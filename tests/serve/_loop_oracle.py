"""The polling dispatch phase ``EventLoop.run`` replaced, kept verbatim
as the oracle.

Until the loop learned to work per change, every iteration asked every
node when it could dispatch next (``next_dispatch_time`` below: three
``len(batcher)`` and a head-of-queue read per node per iteration), and
trace arrivals went through the event heap one at a time, each popped
arrival pushing its successor (``_next_arrival``).  The shipped loop
caches the first on the node (``ServeNode.ready_at``, reset by whatever
writes one of its inputs) and merges the sorted trace past the heap;
what it must reproduce is this code, run for run: every response, every
report field, every counter.  ``tests/serve/test_loop_invariants.py``
compares the two over generated ``ServeEngine`` and ``FleetEngine``
configurations.  Do not "fix" or speed up anything here.  (Verbatim
but for two ``PERF.count`` lines nobody read, deleted on both sides.)

:class:`PollingLoop` ignores ``ServeNode.ready_at`` entirely — it
derives readiness from the node's queue, flags and ``free_at`` each
time — so a missing invalidation in the shipped nodes cannot hide in
it.  :func:`polling_loop` swaps it into both engines.
"""

import heapq
from contextlib import contextmanager

import pytest

from repro.serve.loop import ADMIT, EventLoop

_INF = float("inf")


def next_dispatch_time(node, draining):
    """``ServeNode.next_dispatch_time`` as the polling loop called it:
    earliest simulated time ``node`` can dispatch its next batch, or
    ``None`` when it has nothing to dispatch."""
    if not node.alive or len(node.batcher) == 0:
        return None
    full = len(node.batcher) >= node.policy.max_batch_size
    if full or draining or node.draining:
        ready_at = 0.0
    else:
        ready_at = node.batcher.oldest_deadline()
    return max(node.free_at, ready_at)


class PollingLoop(EventLoop):
    """:class:`EventLoop` with the pre-cache ``run``."""

    def __init__(self, *args):
        super().__init__(*args)
        # Trace arrivals carry their index as seq and enter the heap
        # one at a time (each schedules its successor), so the heap
        # stays a handful of entries however long the trace is.
        self._cursor = 0
        self._next_arrival()

    def _next_arrival(self):
        if self._cursor < len(self._trace):
            request = self._trace[self._cursor]
            heapq.heappush(self._heap, (request.arrival, ADMIT,
                                        self._cursor, "admit", request))
            self._cursor += 1

    def run(self, handlers=()):
        on = {"admit": [self.nodes[0].submit], "batch": [self.collect]}
        on.update(handlers)
        heap = self._heap
        arrivals = len(self._trace)
        soonest = _INF      # earliest time any node can dispatch next
        while True:
            due = heap[0][0] if heap else _INF
            if soonest < due:
                due = soonest
            if due == _INF:
                break
            if due > self.clock:
                self.clock = due

            while heap and heap[0][0] <= self.clock:
                _, phase, seq, kind, payload = heapq.heappop(heap)
                if phase == ADMIT:
                    self._admissions -= 1
                    if seq < arrivals:
                        self._next_arrival()
                for handler in on.get(kind, ()):
                    handler(payload)

            draining = self.draining
            soonest = _INF
            for node in self.nodes:
                ready_at = next_dispatch_time(node, draining)
                if ready_at is not None and ready_at <= self.clock:
                    batch = node.dispatch(
                        self.clock,
                        *self.multipliers(node.node_id, self.clock))
                    for handler in on["batch"]:
                        handler((node, batch))
                    ready_at = next_dispatch_time(node, draining)
                if ready_at is not None and ready_at < soonest:
                    soonest = ready_at
            for handler in on.get("dispatched", ()):
                handler(None)

        return self.responses


@contextmanager
def polling_loop():
    """Run ``FleetEngine`` — and so ``ServeEngine``, its 1-replica
    configuration — on :class:`PollingLoop` within the ``with``
    block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.fleet.engine.EventLoop", PollingLoop)
        yield
