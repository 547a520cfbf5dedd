"""Fault injection, recovery, and the cost of an unhealthy cluster.

The paper's measurements assume a healthy 4-node testbed; this
benchmark re-runs one seeded training configuration under injected
faults (``repro.faults``) and reports what each failure mode costs in
the same units the paper uses — simulated epoch time and accuracy:

* **straggler**: one worker 4x slower stretches every synchronous
  epoch toward the straggler's pace (the BSP tax);
* **flaky**: failed remote fetches pay retry timeouts/backoff in
  simulated time; the loss curve is untouched because exhausted
  retries fall back to slow-but-correct fetches;
* **slowlink**: degraded network bandwidth inflates the
  data-transferring step exactly as Figure 7's bandwidth axis would
  predict;
* **crash**: a dead worker either redistributes its training vertices
  to survivors or drops them (``crash_policy``), and the all-reduce
  ring shrinks to the survivors.

Two recovery invariants are *asserted*, not just reported: a run
halted at epoch 2 and resumed from its checkpoint reproduces the
uninterrupted loss/accuracy/epoch-time curve bit-identically, and the
same fault-plan seed reproduces the identical fault timeline.

This is ``repro bench faults`` at full size: results are written to
``BENCH_faults.json`` at the repo root.
"""

from repro.bench import run_bench

from common import bench_cli, run_once


def test_fault_recovery(benchmark):
    report, ok = run_once(benchmark, lambda: run_bench("faults"))
    # Recovery invariants: the injected halt fired, the resumed run
    # bit-matches the uninterrupted one, and fault timelines replay
    # under a fixed seed.
    assert ok
    assert report["halt_fired"] is True
    assert report["resume_exact"] is True
    assert report["plan_deterministic"] is True
    by_name = {row["scenario"]: row for row in report["scenarios"]}
    # Non-destructive faults slow the clock without touching the math.
    for name in ("straggler", "flaky", "slowlink"):
        assert by_name[name]["epoch_time_overhead"] > 0
        assert by_name[name]["losses_match_healthy"] is True
        assert by_name[name]["alive_workers"] == report["workers"]
    assert by_name["flaky"]["retries"] > 0
    # Crashes shrink the cluster; only the drop policy loses vertices.
    for name in ("crash-redistribute", "crash-drop"):
        assert by_name[name]["alive_workers"] == report["workers"] - 1
    assert by_name["crash-redistribute"]["dropped_vertices"] == 0
    assert by_name["crash-drop"]["dropped_vertices"] > 0


if __name__ == "__main__":
    bench_cli("faults")
