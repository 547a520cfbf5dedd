"""The sharded-serving benchmark: scaling, locality, elasticity.

Trains a small model, generates one shared Zipf-skewed trace at a
multiple of the single-server benchmark's base rate (the fleet exists
for load one node cannot hold), then measures:

* **scaling** — p50/p95/p99 latency and throughput vs replica count
  (the tail must *strictly improve* from 1 to 4 replicas under load);
* **locality** — the fraction of requests answered with zero remote
  rows, per partitioner: the serving-side readout of edge-cut quality
  (hash vs the Metis family);
* **elasticity** — a queue-depth autoscaling run and a crash-failover
  run, demonstrating the active replica set following load and the
  router surviving a dead node.

Every run checks the fleet's core invariant, N replicas == 1 replica:
for the same trace, a multi-replica fleet in ``precomputed`` mode must
produce **bit-identical predictions** to a
:class:`~repro.serve.engine.ServeEngine` (the 1-replica fleet) —
routing, spillover, and re-batching may change *when* an answer is
computed, never *what* it is.  Registered as ``fleet`` in :mod:`repro.bench` (``repro bench
fleet`` writes ``BENCH_fleet.json``).
"""

from __future__ import annotations

import numpy as np

from ..core import format_table
from ..core.config import make_partitioner
from ..errors import ServingError
from ..serve.batcher import BatchPolicy
from ..serve.bench import prepare_serving, reference_predictions
from .chaos import crash_storm
from .engine import FleetEngine
from .router import AutoscalePolicy, RoutingPolicy

__all__ = ["run_fleet_bench", "tables", "checks", "QUICK_OVERRIDES"]

#: Parameter overrides for smoke runs (CI, ``--quick``).
QUICK_OVERRIDES = dict(scale=0.15, train_epochs=1, num_requests=160,
                       rate_multiplier=20.0, replica_counts=(1, 2),
                       locality_partitioners=("hash", "metis-v"))


def _partition(name, data, num_parts, seed):
    """One seeded partition of the benchmark graph."""
    return make_partitioner(name).partition(
        data.graph, num_parts, split=data.split,
        rng=np.random.default_rng(seed))


def _scaling_row(report):
    """The scaling-sweep fields of one fleet report."""
    out = report.to_dict()
    del out["replicas"]
    del out["scale_events"]
    return out


def run_fleet_bench(dataset="ogb-arxiv", scale=0.3, model="gcn",
                    train_epochs=2, fanout=(10, 10), base_rate=2000.0,
                    rate_multiplier=100.0, num_requests=2000,
                    skew=0.8, seed=0, replica_counts=(1, 2, 4, 8),
                    partitioner="metis-v",
                    locality_partitioners=("hash", "metis-v",
                                           "metis-ve", "metis-vet"),
                    batch_size=16, max_wait=0.0005, cache_policy="lfu",
                    cache_ratio=0.1, warm_ratio=0.1, max_queue=512,
                    spill_threshold=64, remote_penalty=8.0,
                    quick=False):
    """Run the full fleet sweep; returns a JSON-serializable dict.

    ``rate_multiplier`` scales the single-server benchmark's
    ``base_rate`` (2000 req/s): the trace arrives at
    ``base_rate * rate_multiplier`` so one replica saturates and the
    replica-count sweep has a queueing story to tell.  ``quick=True``
    applies :data:`QUICK_OVERRIDES` for a fast smoke.
    """
    if quick:
        scale = QUICK_OVERRIDES["scale"]
        train_epochs = QUICK_OVERRIDES["train_epochs"]
        num_requests = QUICK_OVERRIDES["num_requests"]
        rate_multiplier = QUICK_OVERRIDES["rate_multiplier"]
        replica_counts = QUICK_OVERRIDES["replica_counts"]
        locality_partitioners = \
            QUICK_OVERRIDES["locality_partitioners"]
    if rate_multiplier < 1:
        raise ServingError(
            f"rate_multiplier must be >= 1, got {rate_multiplier}")
    if len(replica_counts) < 1:
        raise ServingError("need at least one replica count")

    rate = base_rate * rate_multiplier
    data, result, trace, embeddings = prepare_serving(
        dataset, scale, model, train_epochs, fanout, rate,
        num_requests, skew, seed)
    trained = result.model
    policy = BatchPolicy(max_batch_size=int(batch_size),
                         max_wait=float(max_wait))
    routing = RoutingPolicy(spill_threshold=int(spill_threshold),
                            remote_penalty=float(remote_penalty))
    serving = dict(policy=policy, max_queue=max_queue,
                   cache_policy=cache_policy, cache_ratio=cache_ratio,
                   warm_ratio=warm_ratio, seed=seed)
    common = dict(serving, mode="precomputed", embeddings=embeddings)

    # ------------------------------------------------------------------
    # Invariant: N-replica answers == 1-replica answers, bit for bit.
    # The reference is a ServeEngine on the same trace; the fleet
    # runs with spillover enabled at the widest replica count, so the
    # check covers re-batched, spilled, and owner-routed requests.
    # ------------------------------------------------------------------
    reference = reference_predictions(data, trained, trace, embeddings,
                                      **serving)
    widest = max(replica_counts)
    fleet_probe = FleetEngine(
        data, trained,
        partition=_partition(partitioner, data, widest, seed),
        routing=routing, **common).run(trace)
    exact = (len(fleet_probe.responses) == len(reference)
             and all(reference[r.request.request_id] == r.prediction
                     for r in fleet_probe.responses))
    if not exact:
        raise ServingError(
            "fleet predictions diverged from the 1-replica "
            "reference (bit-match invariant violated)")

    # ------------------------------------------------------------------
    # Scaling sweep: latency/throughput vs replica count.
    # ------------------------------------------------------------------
    scaling = []
    p99_by_count = {}
    for count in replica_counts:
        report = FleetEngine(
            data, trained,
            partition=_partition(partitioner, data, count, seed),
            routing=routing, **common).run(trace)
        p99_by_count[count] = report.latency_p99
        scaling.append(_scaling_row(report))
    p99_improves = (1 in p99_by_count and 4 in p99_by_count
                    and p99_by_count[4] < p99_by_count[1])

    # ------------------------------------------------------------------
    # Locality sweep: routing locality per partitioner, precomputed
    # (table rows move; owner routing keeps them local) and sampled
    # (the seed's L-hop halo moves; run cache-less so the remote-row
    # fraction reads the partition's edge cut directly rather than
    # whatever the cache happened to absorb).
    # ------------------------------------------------------------------
    locality_count = max(c for c in replica_counts) if quick \
        else max(c for c in replica_counts if c <= 4)
    locality = []
    for name in locality_partitioners:
        part = _partition(name, data, locality_count, seed)
        for mode in ("precomputed", "sampled"):
            kwargs = dict(common, mode=mode)
            if mode == "sampled":
                kwargs.update(embeddings=None, cache_ratio=0.0,
                              warm_ratio=0.0)
            report = FleetEngine(data, trained, partition=part,
                                 fanout=tuple(fanout),
                                 routing=routing, **kwargs).run(trace)
            locality.append({
                "partitioner": name,
                "mode": mode,
                "num_replicas": locality_count,
                "routing_locality": report.routing_locality,
                "remote_row_fraction": report.remote_row_fraction,
                "remote_seconds": report.remote_seconds,
                "spillovers": report.spillovers,
                "latency_p99": report.latency_p99,
            })

    # ------------------------------------------------------------------
    # Elasticity: queue-depth autoscaling from min_replicas=1, and a
    # mid-run crash of the busiest replica with router failover.
    # ------------------------------------------------------------------
    elastic_part = _partition(partitioner, data, locality_count, seed)
    autoscale_report = FleetEngine(
        data, trained, partition=elastic_part, routing=routing,
        autoscale=AutoscalePolicy(min_replicas=1,
                                  high_watermark=float(max_queue) / 8,
                                  low_watermark=2.0,
                                  cooldown=20.0 / rate),
        **common).run(trace)

    crash_at = trace[len(trace) // 3].arrival
    failover_report = FleetEngine(
        data, trained, partition=elastic_part, routing=routing,
        schedule=crash_storm(locality_count, start=crash_at,
                             down=50.0 / rate, count=1),
        **common).run(trace)

    return {
        "dataset": data.name,
        "scale": scale,
        "model": model,
        "train_epochs": train_epochs,
        "test_accuracy": result.test_accuracy,
        "load": {"base_rate": base_rate,
                 "rate_multiplier": rate_multiplier, "rate": rate,
                 "num_requests": num_requests, "skew": skew,
                 "seed": seed},
        "batching": policy.describe(),
        "routing": {"spill_threshold": spill_threshold,
                    "remote_penalty": remote_penalty},
        "cache": {"policy": cache_policy, "hot_ratio": cache_ratio,
                  "warm_ratio": warm_ratio},
        "partitioner": partitioner,
        "invariant_exact_match": exact,
        "p99_improves_1_to_4": p99_improves,
        "scaling": scaling,
        "locality": locality,
        "autoscale": {
            "scale_events": autoscale_report.scale_events,
            "replicas_active_max":
                autoscale_report.replicas_active_max,
            "latency_p99": autoscale_report.latency_p99,
            "completed": autoscale_report.completed,
        },
        "failover": {
            "failovers": failover_report.failovers,
            "requeued": failover_report.requeued,
            "completed": failover_report.completed,
            "rejected": failover_report.rejected,
            "crashes": 1,
            "latency_p99": failover_report.latency_p99,
        },
    }


def tables(report):
    """The scaling and locality sweeps as printed tables, plus the
    failover demo's one-line summary."""
    rows = []
    for result in report["scaling"]:
        rows.append({
            "replicas": result["num_replicas"],
            "p50 (ms)": round(1e3 * result["latency_p50"], 3),
            "p95 (ms)": round(1e3 * result["latency_p95"], 3),
            "p99 (ms)": round(1e3 * result["latency_p99"], 3),
            "req/s": round(result["throughput"], 1),
            "locality": round(result["routing_locality"], 3),
            "hot hit": round(result["hot_hit_rate"], 3),
            "warm hit": round(result["warm_hit_rate"], 3),
            "rejected": result["rejected"],
        })
    scaling = format_table(
        rows, title=f"Fleet scaling ({report['dataset']}, "
                    f"{report['partitioner']}, "
                    f"rate={report['load']['rate']:g}/s)")
    rows = []
    for result in report["locality"]:
        rows.append({
            "partitioner": result["partitioner"],
            "mode": result["mode"],
            "locality": round(result["routing_locality"], 3),
            "remote rows": round(result["remote_row_fraction"], 3),
            "remote (ms)": round(1e3 * result["remote_seconds"], 2),
            "p99 (ms)": round(1e3 * result["latency_p99"], 3),
        })
    locality = format_table(
        rows, title=f"Routing locality "
                    f"(N={report['locality'][0]['num_replicas']})")
    failover = report["failover"]
    return (f"{scaling}\n\n{locality}\n"
            f"failover: {failover['failovers']} failovers, "
            f"{failover['requeued']} requeued, "
            f"{failover['completed']} completed")


def checks(report):
    """Exit rule: N replicas answer exactly what one replica would."""
    return {"invariant (N replicas == 1 replica, bit-exact)":
            report["invariant_exact_match"]}
