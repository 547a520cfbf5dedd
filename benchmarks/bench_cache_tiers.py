"""Tiered feature caching: transfer seconds vs budget, skew, policy.

The paper measures GPU feature caching as a flat, single-tier question
(§5.3: which vertices to pin in spare GPU memory).  BGL-family systems
manage a *hierarchy* instead — GPU-hot, pinned-host-warm, disk-cold —
and this benchmark measures what the extra tier buys, through the same
hardware cost model as every other experiment:

* **training mode**: Zipf-skewed seed batches are sampled exactly as an
  epoch would, and each batch's ``input_nodes`` stream through
  :class:`~repro.transfer.methods.ExtractLoad`'s tier-by-tier billing;
* **serve mode**: a seeded :class:`~repro.serve.requests.LoadGenerator`
  trace is batched and billed row-by-row through
  :meth:`~repro.transfer.tiered.TieredCache.fetch_seconds`.

At every (skew, total budget) point the same budget is spent five ways:
flat single-tier LRU (all budget GPU-hot — the disk-backed analogue of
the paper's dynamic baseline) against tiered lru/lfu/degree/presample
splits (half hot, half warm).  The headline check: for skew >= 0.8 the
frequency-informed tiered policies (lfu / presample) beat flat LRU on
data-transfer seconds at the same total budget.

Results are written to ``BENCH_cache.json`` at the repo root
(``--quick``: the git-ignored ``BENCH_cache.quick.json``).  The sweep is
simulated-clock deterministic; CI regenerates the tracked file and
fails on any diff.
"""

import numpy as np

from repro.bench import result_path, write_report
from repro.core import format_table
from repro.graph import load_dataset
from repro.sampling import NeighborSampler
from repro.serve.requests import LoadGenerator
from repro.transfer import (DEFAULT_SPEC, BatchStats, ExtractLoad,
                            make_tiered_cache)

from common import run_once

SKEWS = (0.4, 0.8, 1.2)
#: Total budgets are deliberately scarce relative to the access
#: footprint: once a tier holds the whole working set, admission policy
#: stops mattering and every split of the same budget ties.
BUDGETS = (0.05, 0.1)
#: (label, hot share of the budget, policy).  Flat LRU spends the whole
#: budget on the GPU tier — the single-tier baseline in the same
#: disk-backed cost model.
POLICIES = (
    ("flat-lru", 1.0, "lru"),
    ("tiered-lru", 0.5, "lru"),
    ("tiered-lfu", 0.5, "lfu"),
    ("tiered-degree", 0.5, "degree"),
    ("tiered-presample", 0.5, "presample"),
)

FULL = dict(scale=0.4, train_batches=60, batch_size=256, fanout=(4, 4),
            num_requests=2000, serve_batch=8)
QUICK = dict(scale=0.15, train_batches=24, batch_size=128, fanout=(4, 4),
             num_requests=600, serve_batch=8)


def _zipf_population(ids, skew, rng):
    """A Zipf(``skew``) popularity distribution over ``ids`` with the
    rank-to-id assignment drawn from ``rng``."""
    ranks = np.arange(1, len(ids) + 1, dtype=np.float64)
    weights = ranks ** -skew
    population = ids[rng.permutation(len(ids))]
    return population, weights / weights.sum()


def _build_cache(data, label, hot_share, policy, budget, *, sampler,
                 presample_seeds, serve_scores, rng):
    hot = budget * hot_share
    warm = budget - hot
    if policy == "presample" and serve_scores is not None:
        # Serve mode has no sampler behind the rows: "presample" means
        # frequencies measured on the trace prefix (static placement).
        return make_tiered_cache("static", data.graph, hot, warm,
                                 scores=serve_scores)
    return make_tiered_cache(policy, data.graph, hot, warm,
                             sampler=sampler, seeds=presample_seeds,
                             rng=rng)


def _training_sweep(data, params, skew, budget):
    """One epoch's worth of Zipf-skewed batches through ExtractLoad's
    tiered billing, once per policy (identical batch stream)."""
    sampler = NeighborSampler(params["fanout"])
    rng = np.random.default_rng(7)
    population, probs = _zipf_population(data.train_ids, skew, rng)
    batches = [rng.choice(population, size=params["batch_size"], p=probs)
               for _ in range(params["train_batches"])]
    # The pre-sampling pass measures the same skewed seed distribution
    # the benchmark replays (GNNLab's offline profiling step).
    presample_seeds = np.concatenate(batches[:8])

    subgraphs = [sampler.sample(data.graph, np.unique(batch),
                                np.random.default_rng(11 + i))
                 for i, batch in enumerate(batches)]
    stats = [BatchStats.from_subgraph(s, data) for s in subgraphs]

    method = ExtractLoad()
    rows = []
    for label, hot_share, policy in POLICIES:
        cache = _build_cache(data, label, hot_share, policy, budget,
                             sampler=sampler,
                             presample_seeds=presample_seeds,
                             serve_scores=None,
                             rng=np.random.default_rng(13))
        total = 0.0
        tier_totals = {"hot": 0.0, "warm": 0.0, "cold": 0.0}
        for stat in stats:
            breakdown = method.transfer(stat, DEFAULT_SPEC, cache=cache)
            total += breakdown.total_seconds
            for tier, value in sorted((breakdown.tier_seconds
                                       or {}).items()):
                tier_totals[tier] += value
        rows.append({
            "mode": "train", "skew": skew, "budget": budget,
            "policy": label, "transfer_seconds": total,
            "hot_hit_rate": cache.hot_hit_rate,
            "warm_hit_rate": cache.warm_hit_rate,
            "tier_seconds": tier_totals,
        })
    return rows


def _serve_sweep(data, params, skew, budget):
    """A skewed request trace billed through each cache's tiered fetch
    (embedding-row bytes, batched like the micro-batcher would)."""
    trace = LoadGenerator(data.test_ids, rate=2000.0,
                          num_requests=params["num_requests"], seed=5,
                          skew=skew).generate()
    vertices = np.array([r.vertex for r in trace], dtype=np.int64)
    row_bytes = data.feature_dim * data.features.itemsize
    measured = np.zeros(data.graph.num_vertices)
    np.add.at(measured, vertices[:len(vertices) // 4], 1)

    size = params["serve_batch"]
    batches = [vertices[i:i + size]
               for i in range(0, len(vertices), size)]
    rows = []
    for label, hot_share, policy in POLICIES:
        cache = _build_cache(data, label, hot_share, policy, budget,
                             sampler=None, presample_seeds=None,
                             serve_scores=measured,
                             rng=np.random.default_rng(13))
        total = 0.0
        tier_totals = {"hot": 0.0, "warm": 0.0, "cold": 0.0}
        for batch in batches:
            _seconds, bill = cache.fetch_seconds(batch, row_bytes,
                                                 DEFAULT_SPEC)
            total += bill.total_seconds
            for tier, value in sorted(bill.tier_seconds().items()):
                tier_totals[tier] += value
        rows.append({
            "mode": "serve", "skew": skew, "budget": budget,
            "policy": label, "transfer_seconds": total,
            "hot_hit_rate": cache.hot_hit_rate,
            "warm_hit_rate": cache.warm_hit_rate,
            "tier_seconds": tier_totals,
        })
    return rows


def build_results(quick=False):
    params = QUICK if quick else FULL
    data = load_dataset("ogb-arxiv", scale=params["scale"])
    results = []
    for skew in SKEWS:
        for budget in BUDGETS:
            results.extend(_training_sweep(data, params, skew, budget))
            results.extend(_serve_sweep(data, params, skew, budget))
    report = {
        "dataset": data.name,
        "scale": params["scale"],
        "skews": list(SKEWS),
        "budgets": list(BUDGETS),
        "policies": [label for label, _share, _policy in POLICIES],
        "quick": quick,
        "results": results,
    }
    write_report(report, result_path("cache", quick))
    return report


def check_headline(report):
    """The acceptance bar: frequency-informed tiered admission beats
    flat single-tier LRU on transfer seconds once the access pattern is
    skewed (skew >= 0.8), at the same total budget."""
    by_key = {}
    for row in report["results"]:
        key = (row["mode"], row["skew"], row["budget"])
        by_key.setdefault(key, {})[row["policy"]] = \
            row["transfer_seconds"]
    for (mode, skew, budget), policies in sorted(by_key.items()):
        if skew < 0.8:
            continue
        flat = policies["flat-lru"]
        best = min(policies["tiered-lfu"], policies["tiered-presample"])
        assert best < flat, (
            f"tiered lfu/presample ({best:.6f}s) should beat flat LRU "
            f"({flat:.6f}s) at mode={mode} skew={skew} budget={budget}")


def report_table(report):
    rows = []
    for row in report["results"]:
        rows.append({
            "mode": row["mode"],
            "skew": row["skew"],
            "budget": row["budget"],
            "policy": row["policy"],
            "transfer (ms)": round(1e3 * row["transfer_seconds"], 3),
            "hot hits": round(row["hot_hit_rate"], 3),
            "warm hits": round(row["warm_hit_rate"], 3),
        })
    return format_table(
        rows, title=f"Tiered cache sweep ({report['dataset']})")


def test_cache_tiers(benchmark):
    report = run_once(benchmark, lambda: build_results(quick=True))
    print()
    print(report_table(report))
    check_headline(report)


if __name__ == "__main__":
    import sys

    quick = "--quick" in sys.argv[1:]
    report = build_results(quick=quick)
    print(report_table(report))
    check_headline(report)
    print("headline: tiered lfu/presample beat flat LRU at skew >= 0.8")
    print(f"wrote {result_path('cache', quick)}")
