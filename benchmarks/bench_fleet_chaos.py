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

This is ``repro bench fleet-chaos`` at full size: results are written
to ``BENCH_fleet_chaos.json`` at the repo root (``--quick``: the
git-ignored ``BENCH_fleet_chaos.quick.json``).
"""

from repro.bench import run_bench

from common import bench_cli, run_once


def test_fleet_chaos(benchmark):
    report, ok = run_once(benchmark, lambda: run_bench("fleet-chaos"))
    # The ISSUE's acceptance bar.
    assert ok and all(report["gates"].values())
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
    bench_cli("fleet-chaos")
