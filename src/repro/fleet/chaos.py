"""Fleet chaos certification: composable fault schedules + the gates.

The resilience layer is only worth shipping if it *provably* beats the
timeout-only baseline under identical faults.  This harness runs both
configurations against the same
composable fault schedules (crash storms, rolling stragglers, slowlink
windows, flapping) on the simulated clock and enforces three gates:

1. **Prediction exactness** — every configuration, including runs
   where answers came from backup owners or hedge winners, must
   bit-match the 1-replica :class:`~repro.serve.engine.ServeEngine`
   predictions for the same trace.
2. **Availability** — under the identical crash storm, k-replicated
   shards + the failure detector + hedging must sustain *strictly
   higher* availability (fraction of requests answered within the SLO)
   and *strictly lower* p99 than the timeout-only baseline.
3. **Mechanism evidence** — the resilient runs must actually exercise
   the machinery: completions served by backup holders and hedge wins
   both > 0.

Availability here is SLO-attainment: a request counts as *available*
only if it completed within ``slo`` simulated seconds of its arrival
(dropped or rejected requests never do).  Goodput is the rate of such
within-SLO completions.  Registered as ``fleet-chaos`` in
:mod:`repro.bench` (``repro bench fleet-chaos`` writes
``BENCH_fleet_chaos.json``).
"""

from __future__ import annotations

import tempfile

import numpy as np

from ..core import format_table
from ..core.config import make_partitioner
from ..errors import ServingError
from ..faults.plan import FaultEvent, FaultPlan
from ..serve.batcher import BatchPolicy
from ..serve.bench import prepare_serving, reference_predictions
from .engine import FleetEngine
from .resilience import ReplicaRecovery, ResiliencePolicy
from .router import RoutingPolicy

__all__ = ["crash_storm", "rolling_stragglers", "flapping",
           "slowlink_window", "run_fleet_chaos_bench", "tables",
           "checks", "QUICK_OVERRIDES"]

#: Parameter overrides for smoke runs (CI, ``--quick``).
QUICK_OVERRIDES = dict(scale=0.15, train_epochs=1, num_requests=400,
                       rate_multiplier=30.0)


# ----------------------------------------------------------------------
# Composable fault schedules (all return a FaultPlan in the shared
# faults.plan grammar, so they print/parse like `--schedule` specs)
# ----------------------------------------------------------------------
def crash_storm(num_replicas, start, down, count=2, spacing=0.0):
    """``count`` replicas crash in id order from ``start``, each down
    for ``down`` seconds, ``spacing`` apart (0 = simultaneous)."""
    events = [FaultEvent(kind="crash", epoch=start + i * spacing,
                         worker=i % num_replicas, duration=down)
              for i in range(count)]
    return FaultPlan(events=tuple(events))


def rolling_stragglers(num_replicas, start, duration, magnitude=8.0,
                       count=None):
    """Consecutive straggler windows rolling across the fleet: replica
    ``i`` serves ``magnitude`` times slower during its window."""
    count = num_replicas if count is None else count
    events = [FaultEvent(kind="straggler",
                         epoch=start + i * duration,
                         worker=i % num_replicas, duration=duration,
                         magnitude=magnitude)
              for i in range(count)]
    return FaultPlan(events=tuple(events))


def flapping(replica, start, period, count=3, down=None):
    """One replica repeatedly crashing and rejoining: ``count`` short
    outages of ``down`` seconds (default half the period), ``period``
    apart — the detector's worst customer."""
    down = period / 2 if down is None else down
    events = [FaultEvent(kind="crash", epoch=start + i * period,
                         worker=replica, duration=down)
              for i in range(count)]
    return FaultPlan(events=tuple(events))


def slowlink_window(start, duration, magnitude=0.25):
    """Cluster network bandwidth scaled by ``magnitude`` for the
    window — every remote fetch stretches by ``1/magnitude``."""
    return FaultPlan(events=(
        FaultEvent(kind="slowlink", epoch=start, duration=duration,
                   magnitude=magnitude),))


# ----------------------------------------------------------------------
# The certification bench
# ----------------------------------------------------------------------
def _availability_row(report, num_requests, slo):
    """SLO-attainment metrics of one run."""
    within = sum(1 for r in report.responses if r.latency <= slo)
    duration = report.duration_seconds
    return {
        "availability": within / num_requests if num_requests else 0.0,
        "goodput": within / duration if duration else 0.0,
        "completed": report.completed,
        "rejected": report.rejected,
        "dropped": report.dropped,
        "drop_rate": report.drop_rate,
        "requeued": report.requeued,
        "failovers": report.failovers,
        "latency_p50": report.latency_p50,
        "latency_p99": report.latency_p99,
        "latency_max": report.latency_max,
        "resilience": report.resilience,
    }


def _backup_completions(report, shards):
    """Completions served by a *backup* holder of the seed vertex —
    the replicated-ownership machinery visibly doing its job."""
    if not shards.replicated:
        return 0
    count = 0
    for r in report.responses:
        vertex = r.request.vertex
        if r.replica != shards.owner(vertex) and bool(
                shards.partition.is_local(r.replica, [vertex])[0]):
            count += 1
    return count


def run_fleet_chaos_bench(dataset="ogb-arxiv", scale=0.3, model="gcn",
                          train_epochs=2, num_replicas=4,
                          base_rate=2000.0, rate_multiplier=50.0,
                          num_requests=1200, skew=0.8, seed=0,
                          partitioner="metis-v", batch_size=16,
                          max_wait=0.0005, cache_policy="lfu",
                          cache_ratio=0.1, warm_ratio=0.1,
                          max_queue=512, spill_threshold=64,
                          remote_penalty=8.0, replication=2,
                          slo=0.005, schedule=None, quick=False):
    """Run the chaos certification; returns a JSON-serializable dict.

    ``schedule`` optionally replaces the composed crash storm with a
    user spec string in the shared ``faults.plan`` grammar (times in
    simulated seconds, ``wN`` naming replicas).  ``slo`` is the
    availability deadline in simulated seconds.  ``quick=True``
    applies :data:`QUICK_OVERRIDES` for a fast smoke.
    """
    if quick:
        scale = QUICK_OVERRIDES["scale"]
        train_epochs = QUICK_OVERRIDES["train_epochs"]
        num_requests = QUICK_OVERRIDES["num_requests"]
        rate_multiplier = QUICK_OVERRIDES["rate_multiplier"]
    if rate_multiplier < 1:
        raise ServingError(
            f"rate_multiplier must be >= 1, got {rate_multiplier}")
    if not 1 <= replication <= num_replicas:
        raise ServingError(
            f"replication must be in [1, {num_replicas}], got "
            f"{replication}")
    if slo <= 0:
        raise ServingError(f"slo must be > 0, got {slo}")
    # A bad spec is a FaultError before any training.
    custom = None if schedule is None else FaultPlan.parse(schedule)

    rate = base_rate * rate_multiplier
    data, result, trace, embeddings = prepare_serving(
        dataset, scale, model, train_epochs, (10, 10), rate,
        num_requests, skew, seed)
    trained = result.model
    span = trace[-1].arrival
    policy = BatchPolicy(max_batch_size=int(batch_size),
                         max_wait=float(max_wait))
    routing = RoutingPolicy(spill_threshold=int(spill_threshold),
                            remote_penalty=float(remote_penalty))
    partition = make_partitioner(partitioner).partition(
        data.graph, num_replicas, split=data.split,
        rng=np.random.default_rng(seed))
    serving = dict(policy=policy, max_queue=max_queue,
                   cache_policy=cache_policy, cache_ratio=cache_ratio,
                   warm_ratio=warm_ratio, seed=seed)
    common = dict(serving, mode="precomputed", embeddings=embeddings,
                  routing=routing)
    reference = reference_predictions(data, trained, trace, embeddings,
                                      **serving)

    def exact(report):
        return all(reference[r.request.request_id] == r.prediction
                   for r in report.responses)

    # The scenario suite: identical schedules for both configurations.
    storm = crash_storm(num_replicas, start=0.25 * span,
                        down=0.35 * span, count=2,
                        spacing=0.05 * span) \
        if custom is None else custom
    scenarios = [
        ("crash_storm", storm),
        ("rolling_stragglers",
         rolling_stragglers(num_replicas, start=0.1 * span,
                            duration=0.2 * span, magnitude=8.0)),
        ("slowlink",
         slowlink_window(start=0.2 * span, duration=0.4 * span,
                         magnitude=0.25)),
        ("flapping",
         flapping(replica=0, start=0.2 * span, period=0.2 * span,
                  count=3, down=0.08 * span)),
    ]
    if quick:
        scenarios = scenarios[:2]

    resilient_kwargs = dict(replication=replication,
                            resilience=ResiliencePolicy())

    # ------------------------------------------------------------------
    # Scenario sweep + gates.
    # ------------------------------------------------------------------
    rows = []
    with tempfile.TemporaryDirectory(
            prefix="repro-fleet-chaos-") as snapdir:
        for name, plan in scenarios:
            base_report = FleetEngine(
                data, trained, partition=partition, schedule=plan,
                **common).run(trace)
            resilient_engine = FleetEngine(
                data, trained, partition=partition, schedule=plan,
                recovery=ReplicaRecovery(
                    snapdir + f"/{name}",
                    snapshot_interval=0.1 * span),
                **resilient_kwargs, **common)
            resilient_report = resilient_engine.run(trace)
            if not (exact(base_report) and exact(resilient_report)):
                raise ServingError(
                    f"chaos gate failed: predictions diverged from "
                    f"the 1-replica reference under {name}")
            rows.append({
                "scenario": name,
                "schedule": plan.describe(),
                "baseline": _availability_row(base_report,
                                              num_requests, slo),
                "resilient": dict(
                    _availability_row(resilient_report, num_requests,
                                      slo),
                    backup_completions=_backup_completions(
                        resilient_report, resilient_engine.shards)),
            })

    storm_row = rows[0]
    gates = {"predictions_exact": True}
    gates["availability_improves"] = (
        storm_row["resilient"]["availability"]
        > storm_row["baseline"]["availability"])
    gates["p99_improves"] = (
        storm_row["resilient"]["latency_p99"]
        < storm_row["baseline"]["latency_p99"])
    gates["backup_served"] = \
        storm_row["resilient"]["backup_completions"] > 0
    straggle_row = rows[1]
    gates["hedges_won"] = (straggle_row["resilient"]["resilience"]
                           ["hedges_won"] > 0)
    failed = sorted(k for k, ok in gates.items() if not ok)
    if failed:
        raise ServingError(
            f"chaos gates failed: {failed} (see BENCH_fleet_chaos "
            f"rows for the measured numbers)")

    return {
        "dataset": data.name,
        "scale": scale,
        "model": model,
        "train_epochs": train_epochs,
        "test_accuracy": result.test_accuracy,
        "load": {"base_rate": base_rate,
                 "rate_multiplier": rate_multiplier, "rate": rate,
                 "num_requests": num_requests, "skew": skew,
                 "seed": seed, "trace_span_seconds": span},
        "slo_seconds": slo,
        "batching": policy.describe(),
        "routing": {"spill_threshold": spill_threshold,
                    "remote_penalty": remote_penalty},
        "partitioner": partitioner,
        "num_replicas": num_replicas,
        "replication": replication,
        "gates": gates,
        "scenarios": rows,
    }


def tables(report):
    """Baseline vs resilient, one row per scenario and configuration."""
    rows = []
    for row in report["scenarios"]:
        for config in ("baseline", "resilient"):
            result = row[config]
            rows.append({
                "scenario": row["scenario"],
                "config": config,
                "avail": round(result["availability"], 4),
                "goodput/s": round(result["goodput"], 1),
                "p99 (ms)": round(1e3 * result["latency_p99"], 3),
                "dropped": result["dropped"],
                "requeued": result["requeued"],
                "backup": result.get("backup_completions", 0),
            })
    return format_table(
        rows, title=f"Fleet chaos ({report['dataset']}, "
                    f"{report['num_replicas']} replicas, "
                    f"k={report['replication']}, "
                    f"SLO={1e3 * report['slo_seconds']:g}ms)")


def checks(report):
    """Exit rule: every certification gate."""
    return {f"gate {name}": held
            for name, held in report["gates"].items()}
