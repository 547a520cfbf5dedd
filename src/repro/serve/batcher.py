"""Dynamic micro-batching with bounded-queue backpressure.

GNN inference is throughput-friendly but latency-sensitive: a bigger
micro-batch amortizes sampling and PCIe transfer over more queries
(the same economics as training batch preparation), but every query in
the batch pays the wait for the last one to arrive.  The
:class:`MicroBatcher` implements the standard two-knob policy —
``max_batch_size`` (flush when full) and ``max_wait`` (flush when the
oldest queued request has waited long enough) — plus a bounded
admission queue: when more requests are waiting than ``max_queue``
allows, new arrivals are rejected with a typed
:class:`~repro.errors.AdmissionError` instead of growing the tail
latency without bound (open-loop load cannot be slowed down, so
shedding is the only backpressure available).

Like :mod:`repro.dist.engine`, everything runs in *simulated* time:
the batcher never reads a clock — callers pass ``now`` in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from numbers import Integral

from ..errors import AdmissionError, ServingError

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
        ``None`` means unbounded.  :meth:`submit` raises
        :class:`~repro.errors.AdmissionError` when full — the request
        is rejected, the queue is unchanged.
    """

    def __init__(self, policy=None, max_queue=None):
        self.policy = policy or BatchPolicy()
        if max_queue is not None:
            _check_count("max_queue", max_queue)
        self.max_queue = max_queue
        #: The waiting requests, oldest first.  Always the same deque,
        #: so a node may hold it and read its length directly; only the
        #: methods below change it.
        self.queue = deque()
        self.admitted = 0
        self.rejected = 0

    def __len__(self):
        return len(self.queue)

    def submit(self, request):
        """Admit ``request`` and return the queue depth it leaves
        behind, or raise :class:`AdmissionError` if the queue is at
        capacity."""
        depth = len(self.queue)
        if self.max_queue is not None and depth >= self.max_queue:
            self.rejected += 1
            raise AdmissionError(
                f"admission queue full ({self.max_queue} waiting); "
                f"rejecting request {request.request_id}")
        self.queue.append(request)
        self.admitted += 1
        return depth + 1

    def oldest_deadline(self):
        """Simulated time at which the current head of the queue forces
        a flush, or ``None`` when the queue is empty."""
        if not self.queue:
            return None
        return self.queue[0].arrival + self.policy.max_wait

    def drain(self):
        """Remove and return every queued request, FIFO order.  Used by
        the fleet's crash failover: a dead replica's queue is handed
        back to the router for re-routing (the requests were admitted
        but never served, so they do not count as rejected here)."""
        drained = list(self.queue)
        self.queue.clear()
        return drained

    def cancel(self, request_id):
        """Remove the queued request with ``request_id`` if present;
        returns whether one was removed.  Used by the fleet's hedged
        requests: when one copy of a hedged pair completes, the twin
        still sitting in another replica's queue is cancelled so it
        never consumes service time (first-response-wins)."""
        for index, queued in enumerate(self.queue):
            if queued.request_id == request_id:
                del self.queue[index]
                return True
        return False

    def take(self):
        """Pop the next batch (up to ``max_batch_size`` requests, FIFO
        order).  Raises :class:`ServingError` on an empty queue."""
        queue = self.queue
        if not queue:
            raise ServingError("take() from an empty batch queue")
        size = self.policy.max_batch_size
        if len(queue) <= size:
            # The whole queue: one copy, not one ``popleft`` a request.
            batch = list(queue)
            queue.clear()
            return batch
        return [queue.popleft() for _ in range(size)]
