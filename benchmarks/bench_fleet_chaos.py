"""Fleet chaos certification: the resilience layer vs the baseline.

``bench_fleet.py`` shows the fleet scaling under healthy load; this
benchmark certifies it under *faults*.  Both configurations face the
identical composable schedules (crash storm, rolling stragglers,
slowlink window, flapping replica) on the simulated clock:

* **baseline** — PR 7's fleet: single shard ownership, no detector,
  crash orphans re-routed only after the 10 ms retry timeout;
* **resilient** — k=2 replicated shards, phi-accrual failure
  detection, circuit breakers, p95-delay hedged requests with
  first-response-wins cancellation, retry budgets, and checkpointed
  cache recovery.

Availability is SLO-attainment (a request answered within 5 ms of
arrival); the gates assert the layer is worth its complexity:

1. every run's predictions bit-match the single-server ``ServeEngine``
   — including answers served by backup owners and hedge winners;
2. under the identical crash storm the resilient fleet sustains
   strictly higher availability and strictly lower p99;
3. the machinery demonstrably ran: backup-served completions > 0 and
   hedge wins > 0.

Results are written to ``BENCH_fleet_chaos.json`` at the repo root
(``--quick``: the git-ignored ``BENCH_fleet_chaos.quick.json``).
"""

import json

from repro.core import format_table
from repro.fleet import run_fleet_chaos_bench

from common import result_path, run_once


def build_results(quick=False):
    report = run_fleet_chaos_bench(
        dataset="ogb-arxiv", scale=0.3, model="gcn", train_epochs=2,
        num_replicas=4, base_rate=2000.0, rate_multiplier=50.0,
        num_requests=1200, skew=0.8, seed=0, partitioner="metis-v",
        replication=2, slo=0.005, quick=quick)
    result_path("fleet_chaos", quick).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def report_table(report):
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
    title = (f"Fleet chaos ({report['dataset']}, "
             f"{report['num_replicas']} replicas, "
             f"k={report['replication']}, "
             f"SLO={1e3 * report['slo_seconds']:g}ms)")
    gates = "\n".join(f"gate {name}: {'ok' if ok else 'VIOLATED'}"
                      for name, ok in report["gates"].items())
    return format_table(rows, title=title) + "\n" + gates


def test_fleet_chaos(benchmark):
    report = run_once(benchmark, build_results)
    print()
    print(report_table(report))
    # The ISSUE's acceptance bar.
    assert all(report["gates"].values())
    storm = report["scenarios"][0]
    assert storm["scenario"] == "crash_storm"
    assert storm["resilient"]["availability"] \
        > storm["baseline"]["availability"]
    assert storm["resilient"]["latency_p99"] \
        < storm["baseline"]["latency_p99"]
    assert storm["resilient"]["backup_completions"] > 0
    stragglers = report["scenarios"][1]
    assert stragglers["resilient"]["resilience"]["hedges_won"] > 0
    # The detector actually beat the 10 ms timeout.
    delay = storm["resilient"]["resilience"]["mean_detection_delay"]
    assert delay is not None and delay < 0.01


if __name__ == "__main__":
    import sys

    from repro.perf import FLAGS

    if "--sanitize" in sys.argv[1:]:
        FLAGS.sanitize = True
    quick = "--quick" in sys.argv[1:]
    print(report_table(build_results(quick=quick)))
    print(f"wrote {result_path('fleet_chaos', quick)}")
