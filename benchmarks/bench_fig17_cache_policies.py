"""Figure 17: performance of GPU caching policies when varying the
cache ratio.

Degree-based (PaGraph) vs pre-sampling-based (GNNLab) caching on a
power-law graph (Amazon stand-in) and a flat-degree graph (OGB-Papers
stand-in).  Paper findings (§7.3.3): on power-law graphs the policies
are comparable (hubs dominate access anyway); on the non-power-law graph
pre-sampling wins clearly because degree stops predicting access.

Access skew on the flat graph comes from a small hot seed set — the
papers100M regime where one epoch touches a small working set of the
graph (see DESIGN.md).
"""

import numpy as np

from repro.core import format_table, make_cache
from repro.sampling import NeighborSampler
from repro.transfer import DEFAULT_SPEC, BatchStats, ZeroCopy

from common import bench_dataset, run_once

DATASETS = ("amazon", "ogb-papers")
RATIOS = (0.1, 0.2, 0.4)
SEED_FRACTION = 0.02
ROUNDS = 4


def epoch_transfer_seconds(dataset, cache, sampler, seeds):
    """Simulated transfer time of a few batches under a cache."""
    method = ZeroCopy()
    rng = np.random.default_rng(3)
    total = 0.0
    for _round in range(ROUNDS):
        batch = rng.permutation(seeds)[:400]
        subgraph = sampler.sample(dataset.graph, batch, rng)
        stats = BatchStats.from_subgraph(subgraph, dataset)
        total += method.transfer(stats, DEFAULT_SPEC,
                                 cache=cache).total_seconds
    return total


def build_rows():
    rows = []
    for name in DATASETS:
        dataset = bench_dataset(name)
        sampler = NeighborSampler((10, 5))
        seeds = dataset.train_ids[:max(
            16, int(SEED_FRACTION * dataset.num_vertices))]
        baseline = epoch_transfer_seconds(dataset, None, sampler, seeds)
        for ratio in RATIOS:
            degree = make_cache("degree", dataset, ratio)
            presample = make_cache("presample", dataset, ratio,
                                   sampler=sampler, seeds=seeds,
                                   rng=np.random.default_rng(1))
            degree_s = epoch_transfer_seconds(dataset, degree, sampler,
                                              seeds)
            presample_s = epoch_transfer_seconds(dataset, presample,
                                                 sampler, seeds)
            rows.append({
                "dataset": name, "cache ratio": ratio,
                "no cache (ms)": round(1e3 * baseline, 3),
                "degree (ms)": round(1e3 * degree_s, 3),
                "presample (ms)": round(1e3 * presample_s, 3),
                "degree hit rate": round(degree.hit_rate, 3),
                "presample hit rate": round(presample.hit_rate, 3),
            })
    return rows


def test_fig17_cache_policies(benchmark):
    rows = run_once(benchmark, build_rows)
    print()
    print(format_table(rows, title="Figure 17: caching policies"))
    for row in rows:
        # Any cache beats no cache.
        assert row["degree (ms)"] <= row["no cache (ms)"]
        assert row["presample (ms)"] <= row["no cache (ms)"]
    flat = [r for r in rows if r["dataset"] == "ogb-papers"]
    skewed = [r for r in rows if r["dataset"] == "amazon"]
    # Flat graph: pre-sampling clearly beats degree caching.
    assert all(r["presample (ms)"] < r["degree (ms)"] for r in flat)
    assert any(r["presample hit rate"] > r["degree hit rate"] + 0.1
               for r in flat)
    # Power-law graph: the two are comparable (within 25%).
    for r in skewed:
        ratio = r["presample (ms)"] / max(r["degree (ms)"], 1e-12)
        assert 0.6 < ratio < 1.35


if __name__ == "__main__":
    print(format_table(build_rows(), title="Figure 17"))
