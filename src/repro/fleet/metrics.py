"""The node report: what one replica measured over a run.

Each :class:`~repro.fleet.replica.ReplicaServer` keeps its own
``latencies`` column and settled queue-depth integers (see
:class:`~repro.serve.loop.ServeNode` and
:meth:`~repro.serve.batcher.MicroBatcher.depth_stats`) and digests them
into a :class:`ReplicaReport`.  The run report
(:class:`~repro.serve.metrics.ServeReport`) converts each replica's
latencies to float64 once, hands that array to the replica's report,
and digests the arrays concatenated in replica order with
:func:`repro.perf.summarize`, so run-wide percentiles are computed over
every replica's observations — not averaged averages.  Its depth
fields pool the replicas' integers.

Zero-traffic replicas are a real state (a cold standby the autoscaler
never activated, a shard the load never touched): their latency fields
are ``None`` and serialize as JSON ``null``, never a fabricated zero
(:func:`repro.serve.metrics.latency_fields`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReplicaReport"]


@dataclass
class ReplicaReport:
    """Everything one replica measured over a fleet run.

    Latency fields are ``None`` (JSON ``null``) when the replica
    completed no requests, and are per *copy* it served: a hedge twin
    that lost the race still counts here — the replica did serve it —
    but not in the fleet-level fields.  ``remote_rows`` counts rows
    actually fetched from other shards over the network (a foreign row
    already resident in the local cache is not a remote fetch);
    ``local_rows`` counts rows resolved on-node (owned or cached).
    ``hot_hit_rate`` and ``tier_seconds`` are filled only when the
    cache is tiered (disk-backed), as on the run report.
    """

    replica: int
    shard_vertices: int
    routed: int                    # requests the router sent here
    owner_routed: int              # ... because this shard owns them
    spill_routed: int              # ... by spillover/failover
    completed: int
    rejected: int
    shed: int
    degraded: int
    num_batches: int
    mean_batch_size: float
    latency_mean: float | None
    latency_p50: float | None
    latency_p95: float | None
    latency_p99: float | None
    latency_max: float | None
    queue_depth_mean: float
    queue_depth_max: float
    bp_seconds: float
    dt_seconds: float
    nn_seconds: float
    local_rows: int
    remote_rows: int
    remote_seconds: float          # network share of dt_seconds
    zero_remote_completed: int     # requests answered w/o remote rows
    cache_hit_rate: float
    hot_hit_rate: float
    warm_hit_rate: float
    tier_seconds: dict
    crashes: int
    down_seconds: float

    def to_dict(self):
        """JSON-serializable summary."""
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}
