"""Sharded multi-replica serving: scaling, locality, elasticity.

``bench_serve_latency.py`` measures one serving node; this benchmark
scales the same workload out across a partitioned fleet, which is
where the paper's data-management axes meet serving for real: the
partitioner decides *where* every feature/embedding row lives, the
router decides *where* every request runs, and the gap between the
two is remote traffic billed over the cluster network.

* **scaling sweep**: p50/p95/p99 and throughput vs replica count
  {1, 2, 4, 8} under a Zipf-skewed open-loop stream at 100x the
  single-server benchmark's base rate — one replica saturates, so the
  tail must *strictly improve* from 1 to 4 replicas;
* **locality sweep**: routing locality (fraction of requests answered
  with zero remote rows) and remote-row fraction per partitioner
  (hash vs Metis-V/VE/VET) — edge-cut quality read out as serving
  network traffic;
* **elasticity**: a queue-depth autoscaling run (active replica set
  follows load) and a crash-failover run (dead replica's queue
  re-routed after the retry policy's detection timeout).

Before any timing is reported, the fleet's predictions are verified
**bit-identical** to the single-server ``ServeEngine`` on the same
trace (precomputed mode evaluates row-wise, so answers are invariant
to how routing re-batched the requests).

This is ``repro bench fleet`` at full size: results are written to
``BENCH_fleet.json`` at the repo root.
"""

from repro.bench import run_bench

from common import bench_cli, run_once


def test_fleet(benchmark):
    report, ok = run_once(benchmark, lambda: run_bench("fleet"))
    # The ISSUE's acceptance bar.
    assert ok and report["invariant_exact_match"] is True
    assert report["p99_improves_1_to_4"] is True
    counts = [r["num_replicas"] for r in report["scaling"]]
    assert counts == [1, 2, 4, 8]
    p99 = {r["num_replicas"]: r["latency_p99"]
           for r in report["scaling"]}
    assert p99[4] < p99[1]
    rate = report["load"]["rate"]
    assert rate >= 10 * report["load"]["base_rate"]
    for result in report["scaling"]:
        assert result["latency_p50"] is not None
        assert {"hot_hit_rate", "warm_hit_rate"} <= result.keys()
    # Locality covers every partitioner in both modes, and a
    # better-than-hash cut shows up as fewer remote rows (sampled).
    sampled = {r["partitioner"]: r["remote_row_fraction"]
               for r in report["locality"] if r["mode"] == "sampled"}
    assert set(sampled) == {"hash", "metis-v", "metis-ve", "metis-vet"}
    assert min(v for k, v in sampled.items() if k != "hash") \
        < sampled["hash"]
    # Elasticity demos actually exercised their machinery.
    assert report["failover"]["failovers"] > 0
    assert report["failover"]["completed"] > 0


if __name__ == "__main__":
    bench_cli("fleet")
