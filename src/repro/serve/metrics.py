"""The serving metrics surface: one report per run.

Every serving run — a :class:`~repro.serve.engine.ServeEngine` is a
1-replica :class:`~repro.fleet.engine.FleetEngine` — ends in one
:class:`ServeReport`, which carries one node report
(:class:`~repro.fleet.metrics.ReplicaReport`) per replica.  A
:class:`~repro.serve.loop.ServeNode` keeps one plain column,
``latencies`` (one entry per served request, appended per batch), and
three integers of queue depth (the admissions and the sum and max of
the depths they left, settled when its queue shrinks:
:meth:`~repro.serve.batcher.MicroBatcher.depth_stats`).  A report
converts each node's latency column to float64 once and digests it
with :func:`repro.perf.summarize` (:func:`latency_fields`), so the
serving layer's percentile math is the perf layer's, unit-tested
there; the depth fields are integer arithmetic
(:func:`depth_fields`).

The answers themselves are columns too.  A dispatch returns one
:class:`BatchRow`, and the run collects the rows into one
:class:`ResponseLedger`: flat columns, extended once per batch, so a
run leaves no Python object per answer behind.  Reading the ledger
builds each :class:`~repro.serve.requests.InferenceResponse` on the
fly, in C.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import attrgetter, index

import numpy as np

from ..perf import summarize
from .requests import InferenceResponse

__all__ = ["BatchRow", "ResponseLedger", "ServeReport", "depth_fields",
           "latency_fields"]

_new = tuple.__new__
_NONE = np.empty(0, dtype=np.int64)
#: The values a row shares, in ``InferenceResponse`` field order.
_SHARED = ("completion", "batch_id", "batch_size", "degraded", "replica")
_LATENCY_STATS = ("mean", "p50", "p95", "p99", "max")


class BatchRow:
    """The answers of one dispatched batch, as columns.

    ``requests`` and the ``predictions`` and ``vertices`` arrays hold
    one entry per answered request, in batch order; ``completion``,
    ``batch_id``, ``batch_size``, ``degraded`` and ``replica`` are
    shared by the whole batch.  ``batch_size`` is the size the batch
    was served at, so it stays that of the whole batch in a row that
    keeps only part of it (:meth:`without`).  Iterating a row yields
    its responses, each an
    :class:`~repro.serve.requests.InferenceResponse`.
    """

    __slots__ = ("requests", "predictions", "vertices") + _SHARED

    def __init__(self, requests, predictions, vertices, completion,
                 batch_id, batch_size, degraded, replica):
        self.requests = requests
        self.predictions = predictions
        self.vertices = vertices
        self.completion = completion
        self.batch_id = batch_id
        self.batch_size = batch_size
        self.degraded = degraded
        self.replica = replica

    def __iter__(self):
        return map(_new, repeat(InferenceResponse), zip(
            self.requests, self.predictions.tolist(),
            *map(repeat, (self.completion, self.batch_id,
                          self.batch_size, self.degraded,
                          self.replica))))

    def without(self, positions):
        """This row minus the answers at ``positions``."""
        keep = [i for i in range(len(self.requests))
                if i not in positions]
        return BatchRow([self.requests[i] for i in keep],
                        self.predictions[keep], self.vertices[keep],
                        self.completion, self.batch_id, self.batch_size,
                        self.degraded, self.replica)


class ResponseLedger(Sequence):
    """The answered responses of one run, kept as flat columns.

    A read-only sequence of
    :class:`~repro.serve.requests.InferenceResponse`.
    :meth:`add` takes a :class:`BatchRow` with three ``extend`` calls:
    the row's requests, its vertex and prediction arrays, and its five
    shared values.  Nothing is kept per answer but a reference to the
    trace's request, so a run leaves no object per answer for the
    garbage collector to track.  ``len`` and ``[i]`` behave as on a
    list; iteration builds each response in C, with the python values
    and in the order :meth:`add` / :meth:`append` received them, from
    per-answer columns the first read expands once.  The numpy
    readers (:meth:`predictions`, :meth:`vertices`,
    :meth:`completions`, :meth:`latencies`) and
    :meth:`last_completion` are what the report's totals are computed
    from.
    """

    def __init__(self):
        self._requests = []     # one per answer
        self._arrays = []       # per row: its vertices, its predictions
        self._shared = []       # per row: its ``_SHARED`` values
        # What a reader reads, one column per response field, and the
        # number of rows it was built from.
        self._read = (0, ())

    def add(self, row):
        """Append every answer of ``row`` (a :class:`BatchRow`)."""
        self._requests.extend(row.requests)
        self._arrays.extend((row.vertices, row.predictions))
        self._shared.extend((row.completion, row.batch_id, row.batch_size,
                             row.degraded, row.replica))

    def append(self, response):
        """Append one :class:`~repro.serve.requests.InferenceResponse`."""
        request = response.request
        self.add(BatchRow(
            (request,), np.array([response.prediction], dtype=np.int64),
            np.array([request.vertex], dtype=np.int64),
            response.completion, response.batch_id, response.batch_size,
            response.degraded, response.replica))

    def __len__(self):
        return len(self._requests)

    def _columns(self):
        """The response fields as python columns, built on the first
        read after a row was added: the predictions as python ints, and
        each shared value repeated once per answer of its row."""
        rows, columns = self._read
        if rows != len(self._arrays):
            counts = list(map(len, self._arrays[::2]))
            width = len(_SHARED)
            columns = (self._requests, self.predictions().tolist(),
                       *(list(chain.from_iterable(
                           map(repeat, self._shared[k::width], counts)))
                         for k in range(width)))
            self._read = len(self._arrays), columns
        return columns

    def __iter__(self):
        return map(_new, repeat(InferenceResponse), zip(*self._columns()))

    def __getitem__(self, position):
        size = len(self._requests)
        position = index(position)
        if position < 0:
            position += size
        if not 0 <= position < size:
            raise IndexError("response index out of range")
        return _new(InferenceResponse,
                    [column[position] for column in self._columns()])

    def _column(self, start):
        return np.concatenate(self._arrays[start::2] or [_NONE])

    def predictions(self):
        """Every answer's prediction, as one array."""
        return self._column(1)

    def vertices(self):
        """Every answer's queried vertex, as one array."""
        return self._column(0)

    def completions(self):
        """Every answer's completion time, as float64."""
        return np.repeat(
            np.array(self._shared[::len(_SHARED)], dtype=np.float64),
            list(map(len, self._arrays[::2])))

    def last_completion(self):
        """The latest completion of any answer, ``0.0`` with none: the
        largest per-row value over the rows holding an answer (a hedged
        row whose every copy lost holds none)."""
        return float(max(compress(self._shared[::len(_SHARED)],
                                  map(len, self._arrays[::2])),
                         default=0.0))

    def latencies(self):
        """Every answer's ``completion - request.arrival``, as
        float64 (the float arithmetic of
        :attr:`~repro.serve.requests.InferenceResponse.latency`)."""
        arrivals = np.fromiter(map(attrgetter("arrival"),
                                   self._requests),
                               dtype=np.float64, count=len(self))
        return self.completions() - arrivals


def latency_fields(column):
    """The ``latency_*`` report fields of one float64 latency column
    (:func:`repro.perf.summarize`); each is ``None`` when nothing was
    served."""
    summary = summarize(column) or dict.fromkeys(_LATENCY_STATS)
    return {f"latency_{stat}": summary[stat] for stat in _LATENCY_STATS}


def depth_fields(nodes):
    """``queue_depth_mean`` / ``queue_depth_max`` over every request
    ``nodes`` admitted (``0.0`` when none was): exact integer sums, so
    the bits are a left-to-right sum's over the pooled depths."""
    admitted, totals, deepest = zip(*(n.depth_stats() for n in nodes))
    if not sum(admitted):
        return {"queue_depth_mean": 0.0, "queue_depth_max": 0.0}
    return {"queue_depth_mean": sum(totals) / sum(admitted),
            "queue_depth_max": float(max(deepest))}


@dataclass
class ServeReport:
    """Everything one serving run measured, in simulated seconds.

    ``precompute_seconds`` is the one-off offline cost of building the
    embedding table (zero for on-demand modes); it is reported next to
    — never folded into — per-request latency, exactly as the paper
    reports partitioning time next to training time.

    Latency fields are per *answered request* — the replicas' latency
    columns concatenated, or under hedging the winners only — and are
    ``None`` (JSON ``null``) when nothing was answered.  Batch and
    queue fields pool every replica (``batch_occupancy`` is the mean
    batch size over ``max_batch_size``).

    ``routing_locality`` is the fraction of completed requests answered
    with **zero remote rows** — what partition-aware routing buys over
    random dispatch; ``remote_row_fraction`` is the row-level companion
    (remote rows / all rows fetched).

    ``cache_hit_rate`` is always the GPU-resident (hot) rate.
    ``hot_hit_rate`` and ``tier_seconds`` (the per-tier split of
    ``dt_seconds``) are filled only when the caches sit over the
    disk-backed hierarchy; otherwise they are ``0.0`` and ``{}``.

    Deadline accounting is zero without a deadline: ``shed`` requests
    were already past their deadline at dispatch, ``degraded`` ones
    were answered by the precomputed fallback instead of the sampled
    path, and ``deadline_misses`` counts completed requests that still
    finished late.  ``dropped`` requests (unroutable, or over the retry
    budget) are a subset of ``rejected``; ``resilience`` holds the
    detector / hedge / breaker / recovery counters, ``None`` on a run
    without them.

    ``responses`` is the run's :class:`ResponseLedger`: every answered
    request once, in the order the run collected it.
    """

    mode: str
    policy: str
    partitioner: str
    num_replicas: int
    num_requests: int
    completed: int
    rejected: int
    spillovers: int
    failovers: int
    requeued: int                  # failover re-submissions after crash
    duration_seconds: float        # time 0 to the last completion
    throughput: float              # completed requests per sim. second
    latency_mean: float | None
    latency_p50: float | None
    latency_p95: float | None
    latency_p99: float | None
    latency_max: float | None
    num_batches: int
    mean_batch_size: float
    batch_occupancy: float
    queue_depth_mean: float
    queue_depth_max: float
    bp_seconds: float              # batch preparation (sampling)
    dt_seconds: float              # feature/embedding transfer
    nn_seconds: float              # NN computation
    remote_seconds: float          # network share of dt_seconds
    precompute_seconds: float
    accuracy: float
    routing_locality: float
    remote_row_fraction: float
    cache_policy: str
    cache_ratio: float
    warm_ratio: float
    cache_hit_rate: float
    hot_hit_rate: float
    warm_hit_rate: float
    tier_seconds: dict
    deadline: float
    shed: int
    degraded: int
    deadline_misses: int
    scale_events: list
    replicas_active_max: int
    dropped: int
    dropped_request_ids: list
    replication_factor: float
    resilience: dict | None
    replicas: list
    responses: ResponseLedger = field(repr=False)

    @property
    def reject_rate(self):
        return self.rejected / self.num_requests \
            if self.num_requests else 0.0

    @property
    def drop_rate(self):
        return self.dropped / self.num_requests \
            if self.num_requests else 0.0

    @property
    def shed_rate(self):
        return self.shed / self.num_requests if self.num_requests else 0.0

    @property
    def deadline_miss_rate(self):
        """Fraction of *completed* requests that finished past their
        deadline (sheds and rejects are counted separately)."""
        return self.deadline_misses / self.completed \
            if self.completed else 0.0

    def breakdown(self):
        """Serving-time shares of the three data-management steps —
        the Figure 2 quantities, now for inference — with the network
        share of data transferring split out."""
        total = self.bp_seconds + self.dt_seconds + self.nn_seconds
        if total == 0:
            return {"batch_preparation": 0.0, "data_transferring": 0.0,
                    "nn_computation": 0.0, "remote_transfer": 0.0}
        return {
            "batch_preparation": self.bp_seconds / total,
            "data_transferring": self.dt_seconds / total,
            "nn_computation": self.nn_seconds / total,
            "remote_transfer": self.remote_seconds / total,
        }

    def to_dict(self):
        """JSON-serializable summary (responses omitted; replica
        reports inlined)."""
        out = {name: getattr(self, name)
               for name in self.__dataclass_fields__
               if name not in ("responses", "replicas")}
        out["reject_rate"] = self.reject_rate
        out["drop_rate"] = self.drop_rate
        out["shed_rate"] = self.shed_rate
        out["deadline_miss_rate"] = self.deadline_miss_rate
        out["breakdown"] = self.breakdown()
        out["replicas"] = [r.to_dict() for r in self.replicas]
        return out
