"""The latency-SLO serving benchmark: one reusable sweep.

Trains a small model, generates one shared seeded request trace, then
serves it under every ``mode x batching policy x cache ratio``
combination, reporting the throughput/latency curves an operator would
use to pick a policy against a latency SLO.  Registered as ``serve`` in
:mod:`repro.bench` (``repro bench serve`` writes ``BENCH_serve.json``).

Every run also verifies the subsystem's core invariant: precomputed
-mode logits must be *bit-identical* (``atol=0``) to on-demand
full-fanout logits on a probe query set.

:func:`prepare_serving` is the prelude the serving, fleet and fleet
chaos benches share: one dataset, one trained model, one seeded trace,
one offline embedding table.
"""

from __future__ import annotations

import numpy as np

from ..core import Trainer, format_table
from ..core.config import TrainingConfig
from ..errors import ServingError
from ..graph import load_dataset
from .batcher import BatchPolicy
from .engine import ServeEngine
from .precompute import LayerwiseEmbeddings
from .requests import LoadGenerator

__all__ = ["run_serve_bench", "prepare_serving",
           "reference_predictions", "tables", "checks",
           "QUICK_OVERRIDES"]

#: Parameter overrides for smoke runs (CI, ``--quick``).
QUICK_OVERRIDES = dict(scale=0.15, train_epochs=1, num_requests=120,
                       policies=((4, 0.0005), (16, 0.002)),
                       cache_ratios=(0.1, 0.5),
                       tiered_policies=("lfu",))


def prepare_serving(dataset, scale, model, train_epochs, fanout, rate,
                    num_requests, skew, seed):
    """What every serving bench starts from: load the dataset, train
    the served model, generate the seeded request trace and precompute
    the embedding table.  Returns ``(data, training result, trace,
    embeddings)``."""
    if train_epochs < 1 or num_requests < 1:
        raise ServingError(
            f"train_epochs and num_requests must be >= 1, got "
            f"{train_epochs} and {num_requests}")
    data = load_dataset(dataset, scale=scale)
    result = Trainer(data, TrainingConfig(
        model=model, epochs=train_epochs, num_workers=2,
        batch_size=256, fanout=tuple(fanout), seed=seed)).run()
    trace = LoadGenerator(data.test_ids, rate=rate,
                          num_requests=num_requests, seed=seed,
                          skew=skew).generate()
    # One shared offline table for every precomputed/full engine.
    embeddings = LayerwiseEmbeddings(result.model, data.graph,
                                     data.features)
    return data, result, trace, embeddings


def reference_predictions(data, model, trace, embeddings, **engine):
    """``request_id -> prediction`` from one 1-replica
    precomputed-mode run over the trace — what every fleet
    configuration must reproduce bit for bit."""
    report = ServeEngine(data, model, mode="precomputed",
                         embeddings=embeddings, **engine).run(trace)
    return {r.request.request_id: r.prediction
            for r in report.responses}


def run_serve_bench(dataset="ogb-arxiv", scale=0.3, model="gcn",
                    train_epochs=2, fanout=(10, 10), rate=2000.0,
                    num_requests=400, skew=0.8, seed=0,
                    policies=((4, 0.0005), (32, 0.004)),
                    cache_ratios=(0.1, 0.5),
                    modes=("sampled", "precomputed"),
                    tiered_policies=("lfu", "static"),
                    max_queue=256, quick=False):
    """Run the full serving sweep; returns a JSON-serializable dict.

    ``policies`` are ``(max_batch_size, max_wait_seconds)`` pairs;
    ``quick=True`` applies :data:`QUICK_OVERRIDES` for a fast smoke.

    Besides the flat ``mode x policy x cache_ratio`` grid, each
    ``tiered_policies`` entry is swept once per cache ratio in
    precomputed mode with the same *total* budget split half GPU-hot,
    half pinned-host-warm ("static" places rows by request frequencies
    measured on the first quarter of the trace — the BGL-style
    presampled admission, serving edition); those rows carry per-tier
    hit rates and a per-tier ``dt_seconds`` split.
    """
    if quick:
        scale = QUICK_OVERRIDES["scale"]
        train_epochs = QUICK_OVERRIDES["train_epochs"]
        num_requests = QUICK_OVERRIDES["num_requests"]
        policies = QUICK_OVERRIDES["policies"]
        cache_ratios = QUICK_OVERRIDES["cache_ratios"]
        tiered_policies = QUICK_OVERRIDES["tiered_policies"]
    if len(policies) < 1 or len(cache_ratios) < 1:
        raise ServingError("need at least one policy and cache ratio")

    data, result, trace, embeddings = prepare_serving(
        dataset, scale, model, train_epochs, fanout, rate,
        num_requests, skew, seed)
    trained = result.model

    # The subsystem invariant, checked on every benchmark run: serving
    # from the table must be bit-identical to exact on-demand
    # inference.
    probe = data.test_ids[:min(64, len(data.test_ids))]
    precomputed_logits = embeddings.logits(probe)
    ondemand_logits, _stats = embeddings.ondemand_logits(probe)
    exact = bool(np.array_equal(precomputed_logits, ondemand_logits))
    if not exact:
        raise ServingError(
            "precomputed-mode logits diverged from on-demand "
            "full-fanout logits (bit-match invariant violated)")

    results = []
    for mode in modes:
        for size, wait in policies:
            for ratio in cache_ratios:
                engine = ServeEngine(
                    data, trained, mode=mode,
                    policy=BatchPolicy(max_batch_size=int(size),
                                       max_wait=float(wait)),
                    max_queue=max_queue, fanout=tuple(fanout),
                    cache_ratio=float(ratio), seed=seed,
                    embeddings=(embeddings if mode != "sampled"
                                else None))
                results.append(engine.run(trace).to_dict())

    # Tiered sweep: same total budget as each flat row, split half
    # GPU-hot / half pinned-host-warm, served in precomputed mode with
    # the first policy's batching.  "static" admission scores rows by
    # request frequencies measured on the first quarter of the trace.
    size, wait = policies[0]
    measured = np.zeros(data.graph.num_vertices)
    # Request-frequency histogram over the warmup trace — admission
    # scoring, not a graph aggregation; no kernel seam applies.
    np.add.at(measured,  # repro: noqa[ARC002]
              [r.vertex for r in trace[:max(1, len(trace) // 4)]], 1)
    for tier_policy in tiered_policies:
        for ratio in cache_ratios:
            engine = ServeEngine(
                data, trained, mode="precomputed",
                policy=BatchPolicy(max_batch_size=int(size),
                                   max_wait=float(wait)),
                max_queue=max_queue, fanout=tuple(fanout),
                cache_policy=tier_policy,
                cache_ratio=float(ratio) / 2,
                warm_ratio=float(ratio) / 2,
                cache_scores=(measured if tier_policy
                              in ("static", "presample") else None),
                seed=seed, embeddings=embeddings)
            results.append(engine.run(trace).to_dict())

    return {
        "dataset": data.name,
        "scale": scale,
        "model": model,
        "train_epochs": train_epochs,
        "test_accuracy": result.test_accuracy,
        "load": {"rate": rate, "num_requests": num_requests,
                 "skew": skew, "seed": seed},
        "fanout": list(fanout),
        "max_queue": max_queue,
        "invariant_exact_match": exact,
        "results": results,
    }


def tables(report):
    """The sweep as one printed table, one row per configuration."""
    rows = []
    for result in report["results"]:
        tiered = result["warm_ratio"] > 0
        rows.append({
            "mode": result["mode"],
            "policy": result["policy"],
            "cache": round(result["cache_ratio"]
                           + result["warm_ratio"], 3),
            "tiers": result["cache_policy"] if tiered else "-",
            "p50 (ms)": round(1e3 * result["latency_p50"], 3),
            "p95 (ms)": round(1e3 * result["latency_p95"], 3),
            "p99 (ms)": round(1e3 * result["latency_p99"], 3),
            "req/s": round(result["throughput"], 1),
            "hit rate": round(result["cache_hit_rate"], 3),
            "warm hit": round(result["warm_hit_rate"], 3),
            "rejected": result["rejected"],
        })
    return format_table(
        rows, title=f"Serving benchmark ({report['dataset']}, "
                    f"{report['model']}, "
                    f"rate={report['load']['rate']:g}/s)")


def checks(report):
    """Exit rule: the precomputed table answers exactly."""
    return {"invariant (precomputed == full-fanout, atol=0)":
            report["invariant_exact_match"]}
