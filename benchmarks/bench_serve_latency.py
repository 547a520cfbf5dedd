"""Online-serving latency under micro-batching policies and caches.

The paper evaluates GNN systems on *training* data management; this
benchmark extends the same lens to online inference.  The serving path
exercises the identical substrates the training experiments measure —
neighborhood sampling (batch preparation), feature/embedding transfer
(the Figure-7 axis), and GPU caching (§5.3) — under an open-loop
Poisson request stream, and reports tail latency instead of epoch time:

* **policy sweep**: small batches flush fast (low p50, low device
  occupancy) while large batches amortize kernels (high throughput,
  queueing-inflated p99) — the classic latency/throughput trade-off;
* **mode sweep**: on-demand ``sampled`` inference pays batch
  preparation per request, while ``precomputed`` layer-wise embedding
  tables reduce serving to a cached lookup plus the MLP head;
* **cache sweep**: LRU embedding caching under a skewed (Zipf-like)
  query popularity, reusing the training-side cache machinery.

The precomputed path is validated against exact full-fanout inference
(bit-identical logits, atol=0) before any timing is reported.

This is ``repro bench serve`` at full size: results are written to
``BENCH_serve.json`` at the repo root.
"""

from repro.bench import run_bench

from common import bench_cli, run_once


def test_serve_latency(benchmark):
    report, ok = run_once(benchmark, lambda: run_bench("serve"))
    # The ISSUE's acceptance bar: the invariant holds, and the sweep
    # covers >= 2 policies x >= 2 cache ratios.
    assert ok and report["invariant_exact_match"] is True
    results = report["results"]
    assert len({r["policy"] for r in results}) >= 2
    assert len({r["cache_ratio"] for r in results}) >= 2
    # Precomputed serving beats on-demand sampled serving on median
    # latency for every matched (policy, cache) configuration.  The
    # tiered rows (warm_ratio > 0) use a different budget split and
    # have no sampled twin — they are checked for shape instead.
    sampled = {(r["policy"], r["cache_ratio"]): r["latency_p50"]
               for r in results if r["mode"] == "sampled"}
    for r in results:
        if r["mode"] == "precomputed" and r["warm_ratio"] == 0:
            key = (r["policy"], r["cache_ratio"])
            assert r["latency_p50"] < sampled[key]
    tiered = [r for r in results if r["warm_ratio"] > 0]
    assert tiered, "sweep lost its tiered-cache rows"
    for r in tiered:
        assert set(r["tier_seconds"]) == {"hot", "warm", "cold"}


if __name__ == "__main__":
    bench_cli("serve")
