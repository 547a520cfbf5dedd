"""The serving event loop: one simulated clock for every serving run.

The serving engine (:class:`~repro.fleet.engine.FleetEngine`, and
:class:`~repro.serve.engine.ServeEngine` as its 1-replica
configuration) drives the two classes here.

:class:`ServeNode` is one server: a
:class:`~repro.serve.batcher.MicroBatcher` (its admission queue — the
node's ``submit``, ``take``, ``cancel`` and ``drain`` are the
batcher's) in front of a :class:`~repro.serve.executor.BatchExecutor`,
the time the server is busy until (``free_at``), and the per-node
counters every report is assembled from.  :meth:`ServeNode.dispatch`
is the one place a batch is taken off a queue and executed, so
everything that happens *to a batch* lives there: deadline shedding,
degraded fallback (with its EWMA service-time estimate) and straggler
/ slow-link stretching.

:class:`EventLoop` advances one simulated clock over one
``(time, phase, seq)``-ordered event queue and a list of nodes.  At
each instant the phases run in a fixed order::

    FAULT     crash / recover / suspect / dead / snapshot
    RESPONSE  a (hedged) batch's responses land at their completion
    ADMIT     trace arrivals, then failover re-submissions
    TIMER     hedge timers (a fleet run's lane: every timer due now)
    dispatch  every ready node, in node-id order

so a fault at time ``t`` is visible to routing at ``t``, every request
that has arrived by ``t`` is queued before any batch is cut at ``t``,
and a hedge twin can still beat a primary that is in flight.  ``seq``
breaks the remaining ties: trace arrivals carry their trace index and
everything scheduled later a larger number, so arrivals are admitted
before same-instant re-submissions and same-phase events run in the
order they were scheduled.  The loop does work when state changes, not
when the clock ticks: the sorted trace never enters the heap — its
head is merged in as ``(arrival, ADMIT, trace_index)`` — and a node's
dispatch time is cached on the node (:attr:`ServeNode.ready_at`) until
something that writes one of its inputs resets it.  An arrival instant
that leaves every cached time in place and later than the next arrival
skips its dispatch phase (:meth:`EventLoop.run` has the rule).

An event is ``(kind, payload)``; :meth:`EventLoop.run` takes the
``{kind: [handler, ...]}`` mapping saying who it is handed to.  The
loop never stores the mapping, so the handlers (bound methods of
whatever drives the loop) and the loop do not keep each other alive
after the run.  With no handlers the loop is a
single router-less server — ``admit`` submits to ``nodes[0]`` and
``batch`` collects the responses — the bare harness a node can be
tested in.  :class:`~repro.fleet.engine.FleetEngine` replaces ``admit``
with its router and subscribes a handler per configured policy.

Nothing here reads a wall clock.
"""

from __future__ import annotations

import heapq
from operator import attrgetter

import numpy as np

from ..errors import SanitizerError, ServingError
from ..perf import FLAGS
from .batcher import MicroBatcher
from .metrics import BatchRow, ResponseLedger

__all__ = ["ServeNode", "EventLoop", "FAULT", "RESPONSE", "ADMIT",
           "TIMER", "cache_hit_rates", "check_trace",
           "run_totals"]

#: Event phases, in the order they run within one simulated instant.
FAULT, RESPONSE, ADMIT, TIMER = range(4)

_INF = float("inf")


class ServeNode(MicroBatcher):
    """One serving node: micro-batch queue + executor + counters.

    Parameters
    ----------
    executor:
        The node's :class:`~repro.serve.executor.BatchExecutor`.
    policy, max_queue:
        Micro-batching policy and admission bound (see
        :class:`~repro.serve.batcher.MicroBatcher`, whose ``submit`` is
        the node's admission: ``False`` and a ``rejected`` count when
        the queue is full).
    rng:
        The node's sampling stream (``sampled`` mode).
    node_id:
        Stamped on every response as ``replica``.
    deadline, fallback:
        Per-request deadline and degraded fallback, as documented on
        :class:`~repro.serve.engine.ServeEngine`.

    The node holds no clock: the loop passes simulated time in.
    """

    def __init__(self, executor, policy=None, max_queue=None, rng=None,
                 node_id=0, deadline=None, fallback=False):
        super().__init__(policy, max_queue)
        self.node_id = int(node_id)
        self.executor = executor
        self.rng = rng
        self.deadline = deadline
        self.fallback = fallback
        self._service_estimate = None   # EWMA of sampled service time

        self.free_at = 0.0          # simulated time the node idles again
        self.alive = True           # False while a crash fault holds
        self._draining = False      # scale-down decided, queue emptying

        self.completed = 0
        self.shed = 0
        self.degraded = 0
        self.zero_remote_completed = 0
        self.num_batches = 0
        self.bp_seconds = 0.0
        self.dt_seconds = 0.0
        self.nn_seconds = 0.0
        # The latency of every copy served (``repro.perf.summarize``);
        # the queue depths are the batcher's ``depth_stats``.
        self.latencies = []

    @property
    def batcher(self):
        """The node's admission queue: the node itself.  Spelled out
        where "drain" could be misread as a scale-down
        (:attr:`draining`)."""
        return self

    @property
    def queue_depth(self):
        return len(self._queue)

    @property
    def draining(self):
        """Scale-down decided: stop admitting, flush the queue."""
        return self._draining

    @draining.setter
    def draining(self, value):
        self._draining = value
        self.ready_at = None

    def next_dispatch_time(self, draining):
        """Earliest simulated time this node can dispatch its next
        batch, or ``None`` when it has nothing to dispatch.  ``draining``
        is the *loop-wide* no-more-admissions flag (partial batches then
        flush immediately).  The loop reads it through the cache, so
        whatever writes ``alive``, ``draining``, ``free_at`` or the
        queue must reset :attr:`ready_at`."""
        depth = len(self._queue)
        if not self.alive or depth == 0:
            return None
        if depth >= self.policy.max_batch_size or draining \
                or self._draining:
            ready_at = 0.0
        else:
            ready_at = self.oldest_deadline()
        return max(self.free_at, ready_at)

    def refresh(self, draining):
        """Recompute and cache :attr:`ready_at` under the loop-wide
        ``draining`` flag; returns it."""
        ready_at = self.next_dispatch_time(draining)
        self.ready_at = _INF if ready_at is None else ready_at
        return self.ready_at

    def dispatch(self, clock, straggle=1.0, slowlink=1.0):
        """Serve one micro-batch at simulated time ``clock``; returns
        its answers as one :class:`~repro.serve.metrics.BatchRow`
        (stamped with this node's id).

        With a deadline, requests already past it are *shed* first —
        they cannot be answered in time however fast the batch runs, so
        the capacity goes to requests that can still make it (an empty
        row comes back when the whole batch was shed) — and with
        ``fallback`` a batch whose predicted sampled-path service time
        would push its oldest request past the deadline is answered
        from the precomputed table instead.

        ``straggle`` multiplies the whole service time (a slow node);
        ``slowlink`` scales network bandwidth, stretching this batch's
        remote-fetch seconds by ``1/slowlink``.  Both default to 1.0
        and are only *applied* when they differ — the healthy path's
        float arithmetic is untouched (bit-exact baseline)."""
        batch = self.take()
        if self.deadline is not None:
            live = [r for r in batch
                    if clock <= r.arrival + self.deadline]
            self.shed += len(batch) - len(live)
            batch = live
        vertices = np.array([r.vertex for r in batch], dtype=np.int64)
        if not batch:
            return BatchRow(batch, vertices, vertices, clock,
                            self.num_batches, 0, False, self.node_id)
        degrade = (
            self.fallback and self._service_estimate is not None
            and clock + self._service_estimate
            > min(r.arrival for r in batch) + self.deadline)

        size = len(batch)
        if degrade:
            predictions, bp, dt, nn = \
                self.executor.execute_degraded(vertices)
            self.degraded += size
        else:
            predictions, bp, dt, nn = self.executor.execute(vertices,
                                                            self.rng)
        service = bp + dt + nn
        if self.fallback and not degrade:
            self._service_estimate = service \
                if self._service_estimate is None \
                else 0.5 * (self._service_estimate + service)
        if slowlink != 1.0:
            service += self.executor.last_remote_seconds \
                * (1.0 / slowlink - 1.0)
        if straggle != 1.0:
            service *= straggle
        completion = clock + service
        self.free_at = completion

        self.completed += size
        self.bp_seconds += bp
        self.dt_seconds += dt
        self.nn_seconds += nn
        if self.executor.last_remote_rows == 0:
            self.zero_remote_completed += size

        self.latencies.extend([completion - r.arrival for r in batch])
        batch_id = self.num_batches
        self.num_batches += 1
        return BatchRow(batch, predictions, vertices, completion,
                        batch_id, size, degrade, self.node_id)

    @property
    def mean_batch_size(self):
        return self.completed / self.num_batches \
            if self.num_batches else 0.0


def _healthy(_node_id, _clock):
    """Service-time multipliers of a loop with no fault windows."""
    return 1.0, 1.0


class EventLoop:
    """Discrete-event loop over ``nodes`` serving one request trace.

    Parameters
    ----------
    nodes:
        The :class:`ServeNode`\\ s, in dispatch order.
    requests:
        The trace, sorted by arrival time.
    multipliers:
        ``(node_id, clock) -> (straggle, slowlink)`` service-time
        multipliers for a dispatch (see :meth:`ServeNode.dispatch`).

    Attributes
    ----------
    clock:
        The simulated time, for handlers to read.
    responses:
        The answered responses, in the order they were collected: a
        :class:`~repro.serve.metrics.ResponseLedger`.
    """

    def __init__(self, nodes, requests, multipliers=_healthy):
        self._trace = list(requests)
        if not self._trace:
            raise ServingError("cannot serve an empty request trace")
        self.nodes = list(nodes)
        self.multipliers = multipliers
        self.clock = 0.0
        self.responses = ResponseLedger()
        # Scheduled events only: trace arrivals are merged in by
        # ``run`` with their trace index as seq, so everything
        # scheduled here sorts after a same-instant arrival.
        self._heap = []
        self._seq = len(self._trace)
        self._admissions = len(self._trace)   # arrivals + re-submissions

    @property
    def draining(self):
        """True once no arrival or re-submission is outstanding: queued
        partial batches then flush without waiting out ``max_wait``."""
        return self._admissions == 0

    def schedule(self, time, phase, kind, payload=None):
        """Queue event ``(kind, payload)`` for ``phase`` of simulated
        instant ``time``."""
        if phase == ADMIT:
            self._admissions += 1
        self._seq += 1
        heapq.heappush(self._heap,
                       (time, phase, self._seq, kind, payload))

    def collect(self, dispatched):
        """Default ``batch`` handler: the responses count as answered
        the moment their batch is dispatched."""
        self.responses.add(dispatched[1])

    def run(self, handlers=()):
        """Run until no event is queued and no node holds a request;
        returns :attr:`responses`.

        ``handlers`` maps an event kind to the ordered list of
        callables its payload is handed to.  Two kinds have a default
        the mapping may replace: ``"admit"`` (payload: the request —
        submit it to ``nodes[0]``) and ``"batch"`` (payload: ``(node,
        row)`` of one dispatch — :meth:`collect` the row).
        ``"dispatched"`` (payload ``None``) fires after every dispatch
        phase.  Any other kind is whatever the caller passes to
        :meth:`schedule`; a kind nobody handles is dropped.

        An instant whose dispatch phase could only find nothing to do
        is passed straight to the next arrival.  That takes all of: no
        ``"dispatched"`` handler; a dispatch phase has run since the
        loop-wide flag last changed; every node's dispatch time still
        cached (nothing reset one since that phase took ``soonest``,
        so ``soonest`` is still their minimum); and the next arrival
        strictly before ``soonest`` and before the heap's next event.

        Under ``FLAGS.sanitize`` every node's cached dispatch time is
        re-derived at every instant, passed ones included."""
        on = {"admit": [self.nodes[0].submit], "batch": [self.collect]}
        on.update(handlers)
        on_admit, on_batch = on["admit"], on["batch"]
        after_dispatch = on.get("dispatched", ())
        heap, trace, nodes = self._heap, self._trace, self.nodes
        sanitize = FLAGS.sanitize
        arrivals = len(trace)
        cursor = 0          # next trace arrival
        flushing = None     # the ``draining`` the cached times assume
        soonest = _INF      # earliest time any node can dispatch next
        while True:
            due = heap[0][0] if heap else _INF
            if cursor < arrivals and trace[cursor].arrival < due:
                due = trace[cursor].arrival
            if soonest < due:
                due = soonest
            if due == _INF:
                break
            if due > self.clock:
                self.clock = due
            clock = self.clock

            while True:
                if cursor < arrivals:
                    request = trace[cursor]
                    arrival = request.arrival
                    if arrival <= clock and (
                            not heap
                            or (arrival, ADMIT, cursor) < heap[0]):
                        cursor += 1
                        self._admissions -= 1
                        for handler in on_admit:
                            handler(request)
                        continue
                if heap and heap[0][0] <= clock:
                    _, phase, _, kind, payload = heapq.heappop(heap)
                    if phase == ADMIT:
                        self._admissions -= 1
                    for handler in on.get(kind, ()):
                        handler(payload)
                    continue
                # Nothing else is due now.  Pass an instant with
                # nothing to dispatch straight to the next arrival (the
                # rule in the docstring).  With an arrival outstanding
                # the loop-wide flag is off, so ``flushing is False``
                # says it has not changed since ``soonest`` was taken.
                if cursor == arrivals or after_dispatch \
                        or flushing is not False or arrival >= soonest \
                        or (heap and heap[0][0] <= arrival):
                    break
                for node in nodes:
                    if node.ready_at is None:
                        break
                else:
                    if sanitize:
                        _check_ready_times(nodes, False)
                    self.clock = clock = arrival
                    continue
                break

            # A fault handler's re-submission can turn the loop-wide
            # flag back off, so it is compared every iteration.
            draining = self._admissions == 0
            if draining is not flushing:
                flushing = draining
                for node in nodes:
                    node.ready_at = None
            if sanitize:
                _check_ready_times(nodes, draining)
            soonest = _INF
            for node in nodes:
                ready_at = node.ready_at
                if ready_at is None:
                    ready_at = node.refresh(draining)
                if ready_at <= clock:
                    batch = node.dispatch(
                        clock, *self.multipliers(node.node_id, clock))
                    for handler in on_batch:
                        handler((node, batch))
                    ready_at = node.refresh(draining)
                if ready_at < soonest:
                    soonest = ready_at
            for handler in after_dispatch:
                handler(None)

        return self.responses


def _check_ready_times(nodes, draining):
    """Sanitizer: a cached :attr:`ServeNode.ready_at` must be what
    :meth:`ServeNode.next_dispatch_time` says now."""
    for node in nodes:
        cached = node.ready_at
        if cached is not None and cached != node.refresh(draining):
            raise SanitizerError(
                f"node {node.node_id}: cached dispatch time {cached} "
                f"but its inputs now give {node.ready_at}; something "
                f"changed them without resetting ready_at")


# ----------------------------------------------------------------------
# Run-level helpers of the serving engine
# ----------------------------------------------------------------------
def check_trace(requests, num_vertices):
    """Reject a trace with an unknown vertex, a bad arrival or a reused id.

    A trace must query vertices the graph has, at finite, non-negative
    arrival times in non-decreasing order, under request ids that are
    all different; :class:`ServingError` names the first request that
    does not.  One pass per run, before any batch is cut: inside a
    batch an id past the end is a bare ``IndexError`` and a negative
    one silently answers for a vertex counted from the end of the
    table, and the loop's arrival merge assumes a sorted trace (a
    ``nan`` or ``inf`` arrival is never due, so the request would
    vanish; one before 0 is served at clock 0 and reports the head
    start as latency).  The fleet keys its bookkeeping by request id,
    so a repeated id would be answered once and counted nowhere."""
    vertices = np.fromiter(map(attrgetter("vertex"), requests),
                           dtype=np.int64, count=len(requests))
    bad = (vertices < 0) | (vertices >= num_vertices)
    if bad.any():
        request = requests[int(bad.argmax())]
        raise ServingError(
            f"request {request.request_id} queries vertex "
            f"{request.vertex}; the served graph has vertices "
            f"0..{num_vertices - 1}")
    arrivals = np.fromiter(map(attrgetter("arrival"), requests),
                           dtype=np.float64, count=len(requests))
    ordered = np.isfinite(arrivals) & (arrivals >= 0.0)
    ordered[1:] &= arrivals[1:] >= arrivals[:-1]
    if not ordered.all():
        request = requests[int(ordered.argmin())]
        raise ServingError(
            f"request {request.request_id} arrives at "
            f"{request.arrival}; a trace needs finite arrival times in "
            f"non-decreasing order, none before 0")
    ids = np.fromiter(map(attrgetter("request_id"), requests),
                      dtype=np.int64, count=len(requests))
    # A generated trace numbers its requests in order: one comparison.
    # int64 truncates a fractional id, so when the truncated ids
    # collide, the ids as given decide.
    if not (ids[1:] > ids[:-1]).all() \
            and len(np.unique(ids)) < len(ids):
        seen = set()
        for request in requests:
            if request.request_id in seen:
                raise ServingError(
                    f"request id {request.request_id} appears more "
                    f"than once in the trace; every request needs its "
                    f"own id")
            seen.add(request.request_id)


def cache_hit_rates(caches):
    """``(gpu_hit_rate, warm_hit_rate, tiered)`` pooled over ``caches``
    — each a :class:`~repro.transfer.tiered.TieredCache` or ``None``.
    ``tiered`` says whether any cache sat over a disk-backed
    hierarchy, i.e. whether the report should carry per-tier
    numbers."""
    gpu = warm = lookups = 0
    tiered = False
    for cache in caches:
        if cache is not None:
            tiered = tiered or cache.backing == "disk"
            gpu += cache.hot_hits
            warm += cache.warm_hits
            lookups += cache.requests
    if not lookups:
        return 0.0, 0.0, tiered
    return gpu / lookups, warm / lookups, tiered


def run_totals(responses, labels):
    """The report fields a run derives from its answered responses.

    ``responses`` is the run's
    :class:`~repro.serve.metrics.ResponseLedger`; the fields are
    ``completed``, ``duration_seconds`` (the last completion of an
    answer, measured from time 0 — not from the first arrival; read off
    the rows, not the per-answer column), ``throughput`` and
    ``accuracy``."""
    completed = len(responses)
    duration = responses.last_completion()
    correct = int(np.count_nonzero(
        responses.predictions() == labels[responses.vertices()]))
    return {"completed": completed,
            "duration_seconds": duration,
            "throughput": completed / duration if duration else 0.0,
            "accuracy": correct / completed if completed else 0.0}
