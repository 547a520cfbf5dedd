"""The serving metrics surface: one report per run.

Every serving run — a :class:`~repro.serve.engine.ServeEngine` is a
1-replica :class:`~repro.fleet.engine.FleetEngine` — ends in one
:class:`ServeReport`, which carries one node report
(:class:`~repro.fleet.metrics.ReplicaReport`) per replica.  A
:class:`~repro.serve.loop.ServeNode` keeps two plain columns —
``latencies`` (one entry per served request, appended per batch) and
``queue_depths`` (one per admitted request) — and the reports digest
them with :func:`repro.perf.summarize`, so the serving layer's
percentile math is the perf layer's, unit-tested there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perf import summarize

__all__ = ["ServeReport", "summary_fields"]


def summary_fields(prefix, column, empty=None,
                   stats=("mean", "p50", "p95", "p99", "max")):
    """The ``<prefix>_<stat>`` report fields of one observation column
    (``summary_fields("latency", node.latencies)``); each is ``empty``
    when nothing was observed.  Without a percentile in ``stats`` the
    column is not sorted: the mean sums it in the given order and the
    max is its largest value, the bits :func:`summarize` returns."""
    if not column:
        summary = dict.fromkeys(stats, empty)
    elif {"mean", "max"}.issuperset(stats):
        summary = {"mean": sum(column) / len(column),
                   "max": float(max(column))}
    else:
        summary = summarize(column)
    return {f"{prefix}_{stat}": summary[stat] for stat in stats}


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
    responses: list = field(repr=False)

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
