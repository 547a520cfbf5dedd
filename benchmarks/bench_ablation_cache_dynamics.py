"""Ablation: static vs dynamic GPU cache policies.

§7.3.3 compares two *static* policies (degree, pre-sampling); the
systems of Table 1 also ship *dynamic* caches (BGL).  This ablation
adds the LRU cache to the comparison under two access regimes:

* **stationary** — the training workload the static policies were
  built for; pre-sampling should win or tie (it measured exactly this
  distribution);
* **drifting** — the hot seed set changes mid-run (e.g. curriculum or
  re-shuffled priorities); static caches go stale, LRU adapts.
"""

import numpy as np

from repro.core import format_table, make_cache
from repro.sampling import NeighborSampler

from common import bench_dataset, run_once

DATASET = "ogb-papers"   # flat degrees: community locality drives access
RATIO = 0.2
ROUNDS = 12
HOT_SIZE = 80


def hit_rate_under(cache, dataset, sampler, seed_sets):
    rng = np.random.default_rng(5)
    cache.reset_stats()
    for round_index in range(ROUNDS):
        seeds = seed_sets[round_index * len(seed_sets) // ROUNDS]
        batch = rng.permutation(seeds)[:300]
        subgraph = sampler.sample(dataset.graph, batch, rng)
        cache.lookup(subgraph.input_nodes)
    return cache.hit_rate


def build_rows():
    dataset = bench_dataset(DATASET)
    sampler = NeighborSampler((6, 3))
    # Two community-disjoint hot seed sets: the drift swaps the working
    # set halfway through the run.
    communities = dataset.communities
    half = communities.max() // 2
    train = dataset.train_ids
    rng = np.random.default_rng(0)
    hot_a = rng.choice(train[communities[train] <= half], HOT_SIZE,
                       replace=False)
    hot_b = rng.choice(train[communities[train] > half], HOT_SIZE,
                       replace=False)
    regimes = {
        "stationary": [hot_a],
        "drifting": [hot_a, hot_b],
    }
    rows = []
    for regime, seed_sets in regimes.items():
        caches = {
            "degree": make_cache("degree", dataset, RATIO),
            "presample": make_cache(
                "presample", dataset, RATIO, sampler=sampler,
                seeds=seed_sets[0], rng=np.random.default_rng(1)),
            "lru": make_cache("lru", dataset, RATIO),
        }
        row = {"regime": regime}
        for name, cache in caches.items():
            row[name] = round(hit_rate_under(cache, dataset, sampler,
                                             seed_sets), 3)
        rows.append(row)
    return rows


def test_ablation_cache_dynamics(benchmark):
    rows = run_once(benchmark, build_rows)
    print()
    print(format_table(rows, title=f"Ablation: cache dynamics "
                                   f"({DATASET}, ratio {RATIO})"))
    stationary = next(r for r in rows if r["regime"] == "stationary")
    drifting = next(r for r in rows if r["regime"] == "drifting")
    # Stationary: the measured-distribution policy wins (it profiled
    # exactly this workload).
    assert stationary["presample"] > stationary["degree"]
    assert stationary["presample"] > stationary["lru"]
    # Drift punishes the pre-sampled snapshot hard...
    assert drifting["presample"] < stationary["presample"] - 0.05
    # ... while the adaptive cache holds up (matches or beats the stale
    # static policies under drift).
    assert drifting["lru"] >= drifting["presample"] - 0.02
    assert drifting["lru"] >= drifting["degree"] - 0.02


if __name__ == "__main__":
    print(format_table(build_rows(), title="Ablation: cache dynamics"))
