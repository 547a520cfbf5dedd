"""Dynamic micro-batching with bounded-queue backpressure.

GNN inference is throughput-friendly but latency-sensitive: a bigger
micro-batch amortizes sampling and PCIe transfer over more queries
(the same economics as training batch preparation), but every query in
the batch pays the wait for the last one to arrive.  The
:class:`MicroBatcher` implements the standard two-knob policy —
``max_batch_size`` (flush when full) and ``max_wait`` (flush when the
oldest queued request has waited long enough) — plus a bounded
admission queue: when more requests are waiting than ``max_queue``
allows, :meth:`MicroBatcher.submit` rejects new arrivals (it returns
``False`` and counts them) instead of growing the tail latency without
bound (open-loop load cannot be slowed down, so shedding is the only
backpressure available).

A serving node (:class:`~repro.serve.loop.ServeNode`) *is* a
:class:`MicroBatcher`, so :meth:`~MicroBatcher.submit` is the whole of
admission: one frame checks the bound, queues the request and resets
the node's cached dispatch time when the request can move it.  The
queue-depth statistics are integers settled when the queue shrinks
(:meth:`~MicroBatcher.depth_stats` has the rule), not one list entry
per admission.

Like :mod:`repro.dist.engine`, everything runs in *simulated* time:
the batcher never reads a clock — callers pass ``now`` in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from numbers import Integral

from ..errors import ServingError

__all__ = ["BatchPolicy", "MicroBatcher"]


def _check_count(name, value):
    """A count knob must be an integer >= 1: ``nan`` and ``2.5`` pass
    a bare ``value < 1`` test, and then ``take`` cannot size a batch or
    the queue bound never holds."""
    if not isinstance(value, Integral) or value < 1:
        raise ServingError(
            f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class BatchPolicy:
    """The two batching knobs.

    Attributes
    ----------
    max_batch_size:
        Flush as soon as this many requests are queued.
    max_wait:
        Flush (a possibly partial batch) once the oldest queued request
        has waited this many simulated seconds.  ``0`` degenerates to
        per-request dispatch.
    """

    max_batch_size: int = 32
    max_wait: float = 2e-3

    def __post_init__(self):
        _check_count("max_batch_size", self.max_batch_size)
        if not self.max_wait >= 0:
            raise ServingError(
                f"max_wait must be >= 0, got {self.max_wait!r}")

    def describe(self):
        """Short policy label used in reports and benchmark tables."""
        return f"b{self.max_batch_size}/w{1e3 * self.max_wait:g}ms"


class MicroBatcher:
    """FIFO admission queue with size/deadline flush semantics.

    Parameters
    ----------
    policy:
        The :class:`BatchPolicy` deciding when a batch is ready.
    max_queue:
        Bound on *queued* (admitted, not yet dispatched) requests;
        ``None`` means unbounded.  :meth:`submit` returns ``False``
        when full — the request is rejected, the queue is unchanged.
    """

    def __init__(self, policy=None, max_queue=None):
        self.policy = policy or BatchPolicy()
        if max_queue is not None:
            _check_count("max_queue", max_queue)
        self.max_queue = max_queue
        #: The waiting requests, oldest first; only the methods below
        #: change it.
        self._queue = deque()
        self.rejected = 0
        #: A :class:`~repro.serve.loop.ServeNode`'s cached
        #: ``next_dispatch_time`` (``inf`` for "nothing to dispatch");
        #: ``None`` once an input was written, as every method below
        #: that can move it does.
        self.ready_at = None
        # Depth statistics as of the last settle: admissions, the sum
        # and max of the depths they left, and the depth then.
        self._admitted = self._depth_sum = self._depth_max = 0
        self._base = 0

    def __len__(self):
        return len(self._queue)

    def submit(self, request):
        """Admit ``request``; returns ``False`` (and counts a
        rejection) when the queue is at capacity."""
        queue = self._queue
        depth = len(queue)
        # The queue never outgrows its bound, and no depth is ``None``.
        if depth == self.max_queue:
            self.rejected += 1
            return False
        queue.append(request)
        # Only the first request (its arrival starts the ``max_wait``
        # clock) and the one filling a batch move the dispatch time.
        if depth == 0 or depth + 1 == self.policy.max_batch_size:
            self.ready_at = None
        return True

    def depth_stats(self):
        """``(admitted, depth_sum, depth_max)``: how many requests were
        admitted, and the sum and the max of the queue depths each left
        behind, itself counted.  Exact integers, settled here — which
        :meth:`take`, :meth:`cancel` and :meth:`drain` call before the
        queue shrinks.  Only :meth:`submit` grows the queue, so the m
        admitted since the last settle left ``base + 1 .. base + m``."""
        base = self._base
        added = len(self._queue) - base
        if added:
            self._admitted += added
            self._depth_sum += added * base + added * (added + 1) // 2
            if base + added > self._depth_max:
                self._depth_max = base + added
            self._base = base + added
        return self._admitted, self._depth_sum, self._depth_max

    def oldest_deadline(self):
        """Simulated time at which the current head of the queue forces
        a flush, or ``None`` when the queue is empty."""
        if not self._queue:
            return None
        return self._queue[0].arrival + self.policy.max_wait

    def drain(self):
        """Remove and return every queued request, FIFO order.  Used by
        the fleet's crash failover: a dead replica's queue is handed
        back to the router for re-routing (the requests were admitted
        but never served, so they do not count as rejected here)."""
        self.depth_stats()
        drained = list(self._queue)
        self._queue.clear()
        self._base = 0
        self.ready_at = None
        return drained

    def cancel(self, request_id):
        """Remove the queued request with ``request_id`` if present;
        returns whether one was removed.  Used by the fleet's hedged
        requests: when one copy of a hedged pair completes, the twin
        still sitting in another replica's queue is cancelled so it
        never consumes service time (first-response-wins)."""
        for index, queued in enumerate(self._queue):
            if queued.request_id == request_id:
                self.depth_stats()
                del self._queue[index]
                self._base -= 1
                self.ready_at = None
                return True
        return False

    def take(self):
        """Pop the next batch (up to ``max_batch_size`` requests, FIFO
        order).  Raises :class:`ServingError` on an empty queue."""
        queue = self._queue
        if not queue:
            raise ServingError("take() from an empty batch queue")
        self.depth_stats()
        self.ready_at = None
        size = self.policy.max_batch_size
        if len(queue) <= size:
            # The whole queue: one copy, not one ``popleft`` a request.
            batch = list(queue)
            queue.clear()
            self._base = 0
            return batch
        self._base -= size
        return [queue.popleft() for _ in range(size)]
