"""The serving metrics surface: one report per run.

A :class:`~repro.serve.loop.ServeNode` keeps two plain columns —
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
    """

    mode: str
    policy: str
    cache_ratio: float
    num_requests: int
    completed: int
    rejected: int
    duration_seconds: float        # time 0 to the last completion
    throughput: float              # completed requests per sim. second
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_max: float
    num_batches: int
    mean_batch_size: float
    batch_occupancy: float         # mean batch size / max_batch_size
    queue_depth_mean: float
    queue_depth_max: float
    cache_hit_rate: float
    bp_seconds: float              # batch preparation (sampling)
    dt_seconds: float              # feature/embedding transfer
    nn_seconds: float              # NN computation
    precompute_seconds: float
    accuracy: float
    # Deadline/degradation accounting (zero when no deadline is set):
    # the per-request deadline in simulated seconds, requests shed
    # because they were already past their deadline at dispatch,
    # requests answered by the precomputed fallback instead of the
    # sampled path, and completed requests that still finished late.
    deadline: float = 0.0
    shed: int = 0
    degraded: int = 0
    deadline_misses: int = 0
    # Per-tier accounting (filled when the engine's cache sits over
    # the disk-backed hierarchy): the admission policy, the pinned-host
    # budget, per-tier hit rates, and the per-tier split of
    # ``dt_seconds``.  ``cache_hit_rate`` above is always the
    # GPU-resident (hot) rate.
    cache_policy: str = "lru"
    warm_ratio: float = 0.0
    hot_hit_rate: float = 0.0
    warm_hit_rate: float = 0.0
    tier_seconds: dict = field(default_factory=dict)
    responses: list = field(repr=False, default_factory=list)

    @property
    def reject_rate(self):
        return self.rejected / self.num_requests \
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
        the Figure 2 quantities, now for inference."""
        total = self.bp_seconds + self.dt_seconds + self.nn_seconds
        if total == 0:
            return {"batch_preparation": 0.0, "data_transferring": 0.0,
                    "nn_computation": 0.0}
        return {
            "batch_preparation": self.bp_seconds / total,
            "data_transferring": self.dt_seconds / total,
            "nn_computation": self.nn_seconds / total,
        }

    def to_dict(self):
        """JSON-serializable summary (responses omitted)."""
        out = {name: getattr(self, name)
               for name in self.__dataclass_fields__
               if name != "responses"}
        out["reject_rate"] = self.reject_rate
        out["shed_rate"] = self.shed_rate
        out["deadline_miss_rate"] = self.deadline_miss_rate
        out["breakdown"] = self.breakdown()
        return out
