"""Figure 15: distribution of active (sampled) vertices over 256 KB
feature blocks within a batch.

For one training batch, how full is each 256 KB feature block with
vertices the batch actually needs?  The paper's observation: activity is
fragmented — most blocks are partially active — and applying a GPU cache
(which strips the hottest vertices out of the transfer) fragments it
much further (the orange line in the figure).
"""

import numpy as np

from repro.core import format_table
from repro.sampling import NeighborSampler
from repro.transfer import block_activity, make_tiered_cache

from common import bench_dataset, run_once

DATASET = "reddit"
SCALE = 1.0
BATCH = 128
FANOUT = (10, 5)


def activity_summary(fractions, label):
    return {
        "config": label,
        "blocks": len(fractions),
        "mean active": round(float(np.mean(fractions)), 3),
        "p50": round(float(np.percentile(fractions, 50)), 3),
        "p90": round(float(np.percentile(fractions, 90)), 3),
        "fully active": int((fractions >= 0.999).sum()),
        "inactive": int((fractions == 0).sum()),
    }


def build_rows():
    dataset = bench_dataset(DATASET, scale=SCALE)
    sampler = NeighborSampler(FANOUT)
    rng = np.random.default_rng(0)
    batch = rng.permutation(dataset.train_ids)[:BATCH]
    subgraph = sampler.sample(dataset.graph, batch, rng)
    feat_bytes = dataset.feature_dim * 4

    plain = block_activity(subgraph.input_nodes, dataset.num_vertices,
                           feat_bytes)
    cache = make_tiered_cache("degree", dataset.graph, 0.3, 0.0)
    misses = cache.lookup(subgraph.input_nodes).misses
    cached = block_activity(misses, dataset.num_vertices, feat_bytes)
    return [activity_summary(plain.fractions, "no cache"),
            activity_summary(cached.fractions, "with 30% degree cache")]


def test_fig15_active_vertex_distribution(benchmark):
    rows = run_once(benchmark, build_rows)
    print()
    print(format_table(rows,
                       title=f"Figure 15: block activity ({DATASET})"))
    plain, cached = rows
    # Activity is fragmented: the typical block is partially active.
    assert 0.0 < plain["mean active"] < 1.0
    # Caching strips the hot vertices and fragments activity further.
    assert cached["mean active"] < plain["mean active"]
    assert cached["fully active"] <= plain["fully active"]


if __name__ == "__main__":
    print(format_table(build_rows(), title="Figure 15"))
