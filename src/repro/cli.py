"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print the Table 2 dataset suite.
``systems``
    Print the Table 1 system taxonomy.
``train``
    Run one training configuration and print the result summary.
``partition``
    Compare partitioning methods on one dataset.
``advise``
    Inspect a dataset and recommend data-management techniques using
    the paper's lessons learned (see :mod:`repro.core.advisor`).
``serve-bench``
    Run the online-inference serving benchmark (latency/throughput
    across micro-batching policies and cache ratios; see
    :mod:`repro.serve`).
``fleet-bench``
    Run the sharded multi-replica serving benchmark (latency vs
    replica count, routing locality per partitioner, autoscaling and
    crash failover; see :mod:`repro.fleet`).
``chaos``
    Run the fault-recovery benchmark (injected stragglers, flaky
    fetches, crashes; checkpoint/resume bit-match; see
    :mod:`repro.faults`).
``fleet-chaos``
    Run the fleet chaos certification (crash storms, rolling
    stragglers, slowlinks against the resilience layer; availability/
    goodput/p99 gates; see :mod:`repro.fleet.resilience`).
``kernel-bench``
    Time every sparse-kernel backend (:mod:`repro.kernels`) against
    the pinned numpy reference and merge the per-backend rows into
    ``BENCH_hotpath.json``; byte-identity vs the reference is checked
    on the same run.  Exits nonzero if no accelerated backend beats
    the reference on the SpMM microbench.
``lint``
    Run the determinism & numerics static-analysis pass (rule ids
    ``RPRnnn``, baseline grandfathering, text/JSON reports; see
    :mod:`repro.analysis`).  Exits nonzero on new findings.
``arch-lint``
    Run the whole-program architectural analysis pass (rule ids
    ``ARCnnn``: layering contract, kernel-seam and billing-seam
    bypasses, simulated-clock purity, RNG provenance, public-API
    drift; see :mod:`repro.analysis.arch`).  Same baseline/noqa/report
    machinery as ``lint``; exits nonzero on new findings.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import FLAGS, Trainer, TrainingConfig, __version__, load_dataset
from .core import format_table, make_partitioner, table1_rows
from .core.advisor import advise
from .graph import dataset_names, dataset_table
from .partition import measure_workload, quality_report
from .sampling import NeighborSampler

__all__ = ["main", "build_parser"]


def _positive_int(text):
    """``argparse`` type: an integer >= 1 (worker/epoch/request counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {value}")
    return value


def _unit_interval(text):
    """``argparse`` type: a float in [0, 1] (cache ratios)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a value in [0, 1], got {value}")
    return value


def build_parser():
    """The argparse parser for all CLI subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Comprehensive Evaluation of GNN "
                    "Training Systems' (VLDB 2024)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the Table 2 dataset suite")
    sub.add_parser("systems", help="print the Table 1 system taxonomy")

    train = sub.add_parser("train", help="run one training configuration")
    train.add_argument("dataset", choices=dataset_names())
    train.add_argument("--model", default="gcn",
                       choices=["gcn", "graphsage"])
    train.add_argument("--partitioner", default="metis-ve")
    train.add_argument("--workers", type=_positive_int, default=4)
    train.add_argument("--batch-size", type=_positive_int, default=512)
    train.add_argument("--fanout", type=int, nargs="+", default=[25, 10])
    train.add_argument("--transfer", default="zero-copy")
    train.add_argument("--cache-ratio", type=_unit_interval, default=0.0)
    train.add_argument("--cache-policy", default=None,
                       choices=["degree", "presample", "random", "lru",
                                "lfu"],
                       help="feature-cache admission policy (lru/lfu "
                            "adapt online, the rest place rows once)")
    train.add_argument("--cache-budget", type=_unit_interval,
                       default=None, metavar="FRAC",
                       help="total multi-tier cache budget as a "
                            "fraction of |V|, split by "
                            "--cache-hot-fraction into a GPU-hot and a "
                            "pinned-host-warm tier (remaining features "
                            "disk-cold); overrides --cache-ratio")
    train.add_argument("--cache-hot-fraction", type=_unit_interval,
                       default=0.5, metavar="FRAC",
                       help="share of --cache-budget held GPU-hot "
                            "(default 0.5)")
    train.add_argument("--pipeline", default="bp+dt",
                       choices=["none", "bp", "bp+dt"])
    train.add_argument("--epochs", type=_positive_int, default=20)
    train.add_argument("--scale", type=float, default=1.0)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault plan, e.g. "
                            "'straggler@1+3:w0:x4,crash@2:w1' "
                            "(see repro.faults.FaultPlan.parse)")
    train.add_argument("--crash-policy", default="redistribute",
                       choices=["redistribute", "drop"],
                       help="what happens to a crashed worker's "
                            "training vertices")
    train.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write epoch-boundary checkpoints to PATH")
    train.add_argument("--checkpoint-every", type=_positive_int,
                       default=1, metavar="N",
                       help="checkpoint every N epochs (default 1)")
    train.add_argument("--resume", action="store_true",
                       help="resume from --checkpoint if it exists")
    train.add_argument("--sanitize", action="store_true",
                       help="arm the runtime sanitizers (NaN/Inf and "
                            "CSR structure checks; behaviour-"
                            "preserving, see repro.analysis.sanitize)")

    part = sub.add_parser("partition",
                          help="compare partitioning methods")
    part.add_argument("dataset", choices=dataset_names())
    part.add_argument("--parts", type=int, default=4)
    part.add_argument("--scale", type=float, default=1.0)
    part.add_argument("--methods", nargs="+",
                      default=["hash", "metis-v", "metis-ve", "metis-vet",
                               "stream-v", "stream-b"])

    adv = sub.add_parser("advise",
                         help="recommend techniques for a dataset")
    adv.add_argument("dataset", choices=dataset_names())
    adv.add_argument("--scale", type=float, default=1.0)
    adv.add_argument("--workers", type=int, default=4)

    rep = sub.add_parser(
        "reproduce",
        help="run every table/figure benchmark, write one report")
    rep.add_argument("--benchmarks-dir", default="benchmarks")
    rep.add_argument("--out", default="reproduction_report.md")
    rep.add_argument("--only", nargs="*", default=None,
                     help="substring filters on benchmark file names")

    serve = sub.add_parser(
        "serve-bench",
        help="run the online-inference serving benchmark")
    serve.add_argument("dataset", nargs="?", default="ogb-arxiv",
                       choices=dataset_names())
    serve.add_argument("--scale", type=float, default=0.3)
    serve.add_argument("--model", default="gcn",
                       choices=["gcn", "graphsage"])
    serve.add_argument("--train-epochs", type=_positive_int, default=2)
    serve.add_argument("--fanout", type=int, nargs="+", default=[10, 10])
    serve.add_argument("--rate", type=float, default=2000.0,
                       help="mean arrival rate (requests per simulated "
                            "second)")
    serve.add_argument("--requests", type=_positive_int, default=400)
    serve.add_argument("--skew", type=float, default=0.8,
                       help="query popularity skew (0 = uniform)")
    serve.add_argument("--policy", action="append", default=None,
                       metavar="SIZE:WAIT_MS",
                       help="batching policy, repeatable (default "
                            "4:0.5 and 32:4)")
    serve.add_argument("--cache-ratios", type=_unit_interval, nargs="+",
                       default=[0.1, 0.5])
    serve.add_argument("--modes", nargs="+",
                       default=["sampled", "precomputed"],
                       choices=["sampled", "full", "precomputed"])
    serve.add_argument("--tiered-policies", nargs="+",
                       default=["lfu", "static"],
                       choices=["lru", "lfu", "degree", "static"],
                       help="tiered-cache admission policies swept in "
                            "precomputed mode (each --cache-ratios "
                            "budget split half GPU-hot, half "
                            "pinned-host-warm)")
    serve.add_argument("--max-queue", type=int, default=256)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--quick", action="store_true",
                       help="small smoke-test preset")
    serve.add_argument("--sanitize", action="store_true",
                       help="arm the runtime sanitizers for the "
                            "benchmark run")
    serve.add_argument("--out", default=None,
                       help="default: BENCH_serve.json, or "
                            "BENCH_serve.quick.json with "
                            "--quick")

    fleet = sub.add_parser(
        "fleet-bench",
        help="run the sharded multi-replica serving benchmark")
    fleet.add_argument("dataset", nargs="?", default="ogb-arxiv",
                       choices=dataset_names())
    fleet.add_argument("--scale", type=float, default=0.3)
    fleet.add_argument("--model", default="gcn",
                       choices=["gcn", "graphsage"])
    fleet.add_argument("--train-epochs", type=_positive_int, default=2)
    fleet.add_argument("--fanout", type=int, nargs="+",
                       default=[10, 10])
    fleet.add_argument("--rate-multiplier", type=float, default=100.0,
                       help="arrival rate as a multiple of the "
                            "single-server benchmark's 2000/s base "
                            "(>= 1)")
    fleet.add_argument("--requests", type=_positive_int, default=2000)
    fleet.add_argument("--skew", type=float, default=0.8,
                       help="query popularity skew (0 = uniform)")
    fleet.add_argument("--replicas", type=_positive_int, nargs="+",
                       default=[1, 2, 4, 8], metavar="N",
                       help="replica counts swept (each N partitions "
                            "the graph into N shards)")
    fleet.add_argument("--partitioner", default="metis-v",
                       choices=["hash", "metis-v", "metis-ve",
                                "metis-vet"],
                       help="partitioner for the scaling sweep")
    fleet.add_argument("--locality-partitioners", nargs="+",
                       default=["hash", "metis-v", "metis-ve",
                                "metis-vet"],
                       choices=["hash", "metis-v", "metis-ve",
                                "metis-vet"],
                       help="partitioners compared in the routing-"
                            "locality sweep")
    fleet.add_argument("--batch-size", type=_positive_int, default=16)
    fleet.add_argument("--max-wait-ms", type=float, default=0.5,
                       help="micro-batch flush deadline in "
                            "milliseconds (>= 0)")
    fleet.add_argument("--cache-ratio", type=_unit_interval,
                       default=0.1, help="per-replica GPU-hot budget")
    fleet.add_argument("--warm-ratio", type=_unit_interval,
                       default=0.1,
                       help="per-replica pinned-host-warm budget")
    fleet.add_argument("--spill-threshold", type=_positive_int,
                       default=64,
                       help="owner queue depth that triggers "
                            "spillover routing")
    fleet.add_argument("--max-queue", type=_positive_int, default=512)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--quick", action="store_true",
                       help="small smoke-test preset")
    fleet.add_argument("--sanitize", action="store_true",
                       help="arm the runtime sanitizers for the "
                            "benchmark run")
    fleet.add_argument("--out", default=None,
                       help="default: BENCH_fleet.json, or "
                            "BENCH_fleet.quick.json with "
                            "--quick")

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-recovery benchmark (injected faults, "
             "checkpoint/resume bit-match)")
    chaos.add_argument("dataset", nargs="?", default="ogb-arxiv",
                       choices=dataset_names())
    chaos.add_argument("--scale", type=float, default=0.2)
    chaos.add_argument("--model", default="gcn",
                       choices=["gcn", "graphsage"])
    chaos.add_argument("--epochs", type=_positive_int, default=6)
    chaos.add_argument("--workers", type=_positive_int, default=4)
    chaos.add_argument("--halt-epoch", type=_positive_int, default=2,
                       help="epoch of the injected process halt used "
                            "for the resume bit-match check")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--quick", action="store_true",
                       help="small smoke-test preset")
    chaos.add_argument("--sanitize", action="store_true",
                       help="arm the runtime sanitizers for the "
                            "benchmark run")
    chaos.add_argument("--out", default=None,
                       help="default: BENCH_faults.json, or "
                            "BENCH_faults.quick.json with "
                            "--quick")

    fchaos = sub.add_parser(
        "fleet-chaos",
        help="run the fleet chaos certification (resilience layer vs "
             "the timeout-only baseline under identical faults)")
    fchaos.add_argument("dataset", nargs="?", default="ogb-arxiv",
                        choices=dataset_names())
    fchaos.add_argument("--scale", type=float, default=0.3)
    fchaos.add_argument("--model", default="gcn",
                        choices=["gcn", "graphsage"])
    fchaos.add_argument("--train-epochs", type=_positive_int,
                        default=2)
    fchaos.add_argument("--replicas", type=_positive_int, default=4)
    fchaos.add_argument("--replication", type=_positive_int, default=2,
                        help="shard redundancy k for the resilient "
                             "configuration (1..replicas)")
    fchaos.add_argument("--rate-multiplier", type=float, default=50.0,
                        help="arrival rate as a multiple of the "
                             "single-server benchmark's 2000/s base")
    fchaos.add_argument("--requests", type=_positive_int, default=1200)
    fchaos.add_argument("--skew", type=float, default=0.8,
                        help="query popularity skew (0 = uniform)")
    fchaos.add_argument("--slo-ms", type=float, default=5.0,
                        help="availability deadline in simulated "
                             "milliseconds")
    fchaos.add_argument("--schedule", default=None, metavar="SPEC",
                        help="replace the composed crash storm with a "
                             "faults.plan spec (times in simulated "
                             "seconds, wN = replica id), e.g. "
                             "'crash@0.002+0.003:w0'")
    fchaos.add_argument("--partitioner", default="metis-v",
                        choices=["hash", "metis-v", "metis-ve",
                                 "metis-vet"])
    fchaos.add_argument("--seed", type=int, default=0)
    fchaos.add_argument("--quick", action="store_true",
                        help="small smoke-test preset")
    fchaos.add_argument("--sanitize", action="store_true",
                        help="arm the runtime sanitizers for the "
                             "benchmark run")
    fchaos.add_argument("--out", default=None,
                        help="default: BENCH_fleet_chaos.json, or "
                             "BENCH_fleet_chaos.quick.json with "
                             "--quick")

    kbench = sub.add_parser(
        "kernel-bench",
        help="time every sparse-kernel backend against the pinned "
             "reference (bit-identity checked on the same run)")
    kbench.add_argument("--seed", type=int, default=7)
    kbench.add_argument("--quick", action="store_true",
                        help="small smoke-test workload")
    kbench.add_argument("--out", default=None,
                        help="benchmark ledger to merge the "
                             "kernel_backends rows into (default: the "
                             "repo's BENCH_hotpath.json, or "
                             "BENCH_hotpath.quick.json with --quick)")

    lint = sub.add_parser(
        "lint",
        help="run the determinism & numerics static-analysis pass")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to scan (default: src "
                           "benchmarks examples tools tests)")
    lint.add_argument("--format", default="text",
                      choices=["text", "json"],
                      help="stdout report format")
    lint.add_argument("--baseline", action="store_true",
                      help="grandfather findings recorded in the "
                           "checked-in baseline; fail only on new ones")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline to cover the current "
                           "findings and exit 0")
    lint.add_argument("--baseline-file", default=None, metavar="PATH",
                      help="baseline location (default: "
                           "src/repro/analysis/baseline.json)")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="also write the JSON report to PATH")

    arch = sub.add_parser(
        "arch-lint",
        help="run the whole-program architectural analysis pass")
    arch.add_argument("root", nargs="?", default=None, metavar="ROOT",
                      help="package source root to analyze (default: "
                           "src/repro)")
    arch.add_argument("--format", default="text",
                      choices=["text", "json"],
                      help="stdout report format")
    arch.add_argument("--baseline", action="store_true",
                      help="grandfather findings recorded in the "
                           "checked-in arch baseline; fail only on "
                           "new ones")
    arch.add_argument("--update-baseline", action="store_true",
                      help="rewrite the arch baseline to cover the "
                           "current findings and exit 0")
    arch.add_argument("--baseline-file", default=None, metavar="PATH",
                      help="baseline location (default: "
                           "src/repro/analysis/arch_baseline.json)")
    arch.add_argument("--layers", default=None, metavar="PATH",
                      help="layers.toml contract to enforce (default: "
                           "src/repro/analysis/layers.toml)")
    arch.add_argument("--out", default=None, metavar="PATH",
                      help="also write the JSON report to PATH")
    return parser


def _cmd_datasets(_args):
    print(format_table(dataset_table(), title="Table 2: datasets"))
    return 0


def _cmd_systems(_args):
    print(format_table(table1_rows(), title="Table 1: systems"))
    return 0


def _cmd_train(args):
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint PATH",
              file=sys.stderr)
        return 2
    if args.sanitize:
        FLAGS.sanitize = True
    cache_policy = args.cache_policy
    cache_ratio, warm_ratio = args.cache_ratio, 0.0
    if args.cache_budget is not None:
        if cache_policy is None:
            print("error: --cache-budget requires --cache-policy",
                  file=sys.stderr)
            return 2
        if cache_policy == "random":
            print("error: random is a single-tier ablation policy; "
                  "tiered budgets support degree, presample, lru, lfu",
                  file=sys.stderr)
            return 2
        cache_ratio = args.cache_budget * args.cache_hot_fraction
        warm_ratio = args.cache_budget - cache_ratio
    dataset = load_dataset(args.dataset, scale=args.scale)
    config = TrainingConfig(
        model=args.model, partitioner=args.partitioner,
        num_workers=args.workers, batch_size=args.batch_size,
        fanout=tuple(args.fanout), transfer=args.transfer,
        cache_policy=cache_policy, cache_ratio=cache_ratio,
        cache_warm_ratio=warm_ratio,
        pipeline=args.pipeline, epochs=args.epochs, seed=args.seed,
        crash_policy=args.crash_policy)
    checkpointer = None
    if args.checkpoint:
        from .faults import Checkpointer
        checkpointer = Checkpointer(args.checkpoint,
                                    every=args.checkpoint_every)
    result = Trainer(dataset, config).run(
        checkpointer=checkpointer, resume=args.resume,
        faults=args.faults)
    print(f"dataset            : {dataset.name} "
          f"(|V|={dataset.num_vertices}, |E|={dataset.num_edges})")
    print(f"best val accuracy  : {result.best_val_accuracy:.3f}")
    print(f"test accuracy      : {result.test_accuracy:.3f}")
    print(f"partitioning       : {result.partition_method} "
          f"({result.partition_seconds:.3f}s wall)")
    print(f"mean epoch (sim)   : {1e3 * result.mean_epoch_seconds:.3f} ms")
    for step, share in result.step_breakdown().items():
        print(f"  {step:18s} {100 * share:5.1f}%")
    tiers = (getattr(result.epoch_stats[-1], "perf", None)
             or {}).get("cache_tiers")
    if tiers:
        print(f"cache tiers        : "
              f"hot {100 * tiers['hot_hit_rate']:.1f}% / "
              f"warm {100 * tiers['warm_hit_rate']:.1f}% hits, "
              f"{tiers['cold_misses']} cold misses")
    if args.faults:
        last = result.epoch_stats[-1]
        retries = sum(s.retries for s in result.epoch_stats)
        giveups = sum(s.giveups for s in result.epoch_stats)
        print(f"fault plan         : {args.faults}")
        print(f"  retries={retries} giveups={giveups} "
              f"alive_workers={last.alive_workers} "
              f"dropped={last.dropped_vertices}")
    return 0


def _cmd_partition(args):
    dataset = load_dataset(args.dataset, scale=args.scale)
    sampler = NeighborSampler((10, 10))
    rows = []
    for name in args.methods:
        partitioner = make_partitioner(name)
        result = partitioner.partition(dataset.graph, args.parts,
                                       split=dataset.split,
                                       rng=np.random.default_rng(1))
        quality = quality_report(dataset.graph, result, dataset.split)
        workload = measure_workload(dataset, result, sampler,
                                    batch_size=256,
                                    rng=np.random.default_rng(2))
        rows.append({
            "method": name,
            "seconds": round(result.seconds, 3),
            "edge cut": round(quality["edge_cut_fraction"], 3),
            "train balance": round(quality.get("train_balance", 0.0), 2),
            "total comm (MB)": round(
                workload.total_comm_bytes / 1e6, 2),
            "comp imbalance": round(workload.compute_imbalance, 2),
        })
    print(format_table(rows,
                       title=f"Partitioning comparison ({dataset.name})"))
    return 0


def _cmd_advise(args):
    dataset = load_dataset(args.dataset, scale=args.scale)
    report = advise(dataset, num_workers=args.workers)
    print(f"recommendations for {dataset.name}:")
    for recommendation in report.recommendations:
        print(f"  [{recommendation.topic}] {recommendation.choice}")
        print(f"      {recommendation.reason}")
    return 0


def _cmd_reproduce(args):
    import subprocess
    from pathlib import Path

    bench_dir = Path(args.benchmarks_dir)
    if not bench_dir.is_dir():
        print(f"benchmarks directory not found: {bench_dir}")
        return 1
    files = sorted(bench_dir.glob("bench_*.py"))
    if args.only:
        files = [f for f in files
                 if any(token in f.name for token in args.only)]
    if not files:
        print("no benchmarks matched")
        return 1
    sections = ["# Reproduction report",
                "",
                f"{len(files)} benchmarks, run standalone.", ""]
    failures = 0
    for path in files:
        print(f"running {path.name} ...", flush=True)
        proc = subprocess.run(
            [sys.executable, path.name], cwd=bench_dir,
            capture_output=True, text=True, timeout=1800)
        sections.append(f"## {path.name}\n")
        body = proc.stdout.strip() or "(no output)"
        if proc.returncode != 0:
            failures += 1
            body += f"\n\nFAILED (exit {proc.returncode})\n" \
                    + proc.stderr.strip()[-2000:]
        sections.append(f"```\n{body}\n```\n")
    out = Path(args.out)
    out.write_text("\n".join(sections))
    print(f"wrote {out} ({len(files)} benchmarks, {failures} failures)")
    return 1 if failures else 0


def _parse_policies(specs):
    """``["4:0.5", "32:4"]`` -> ``[(4, 0.0005), (32, 0.004)]``
    (size, max-wait in simulated seconds)."""
    policies = []
    for spec in specs:
        size, _, wait_ms = spec.partition(":")
        policies.append((int(size), float(wait_ms or 0.0) / 1e3))
    return policies


def _bench_out(args, tracked):
    """Where a bench subcommand writes: ``--out`` when given, else the
    tracked ``BENCH_*.json`` — or, for a ``--quick`` smoke, its
    untracked ``.quick.json`` sibling, so a smoke run can never
    overwrite a checked-in full sweep."""
    from pathlib import Path

    if args.out:
        return Path(args.out)
    tracked = Path(tracked)
    return tracked.with_suffix(".quick.json") if args.quick else tracked


def _cmd_serve_bench(args):
    import json

    from .serve import run_serve_bench

    if args.sanitize:
        FLAGS.sanitize = True
    policies = _parse_policies(args.policy or ["4:0.5", "32:4"])
    report = run_serve_bench(
        dataset=args.dataset, scale=args.scale, model=args.model,
        train_epochs=args.train_epochs, fanout=tuple(args.fanout),
        rate=args.rate, num_requests=args.requests, skew=args.skew,
        seed=args.seed, policies=policies,
        cache_ratios=tuple(args.cache_ratios),
        modes=tuple(args.modes),
        tiered_policies=tuple(args.tiered_policies),
        max_queue=args.max_queue, quick=args.quick)

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
    print(format_table(
        rows, title=f"Serving benchmark ({report['dataset']}, "
                    f"{report['model']})"))
    print(f"invariant (precomputed == full-fanout, atol=0): "
          f"{'ok' if report['invariant_exact_match'] else 'VIOLATED'}")
    out = _bench_out(args, "BENCH_serve.json")
    out.write_text(json.dumps(report, indent=2))
    print(f"wrote {out} ({len(report['results'])} configurations)")
    return 0


def _cmd_fleet_bench(args):
    import json

    from .fleet import run_fleet_bench

    if args.sanitize:
        FLAGS.sanitize = True
    if args.rate_multiplier < 1:
        print(f"error: --rate-multiplier must be >= 1, got "
              f"{args.rate_multiplier}", file=sys.stderr)
        return 2
    if args.max_wait_ms < 0:
        print(f"error: --max-wait-ms must be >= 0, got "
              f"{args.max_wait_ms}", file=sys.stderr)
        return 2
    if args.cache_ratio + args.warm_ratio > 1.0:
        print(f"error: --cache-ratio + --warm-ratio must be <= 1, got "
              f"{args.cache_ratio + args.warm_ratio}", file=sys.stderr)
        return 2
    report = run_fleet_bench(
        dataset=args.dataset, scale=args.scale, model=args.model,
        train_epochs=args.train_epochs, fanout=tuple(args.fanout),
        rate_multiplier=args.rate_multiplier,
        num_requests=args.requests, skew=args.skew, seed=args.seed,
        replica_counts=tuple(args.replicas),
        partitioner=args.partitioner,
        locality_partitioners=tuple(args.locality_partitioners),
        batch_size=args.batch_size,
        max_wait=args.max_wait_ms / 1e3,
        cache_ratio=args.cache_ratio, warm_ratio=args.warm_ratio,
        spill_threshold=args.spill_threshold,
        max_queue=args.max_queue, quick=args.quick)

    rows = []
    for result in report["scaling"]:
        rows.append({
            "replicas": result["num_replicas"],
            "p50 (ms)": round(1e3 * result["latency_p50"], 3),
            "p95 (ms)": round(1e3 * result["latency_p95"], 3),
            "p99 (ms)": round(1e3 * result["latency_p99"], 3),
            "req/s": round(result["throughput"], 1),
            "locality": round(result["routing_locality"], 3),
            "hot hit": round(result["hot_hit_rate"], 3),
            "rejected": result["rejected"],
        })
    print(format_table(
        rows, title=f"Fleet scaling ({report['dataset']}, "
                    f"{report['partitioner']}, "
                    f"rate={report['load']['rate']:g}/s)"))
    rows = []
    for result in report["locality"]:
        rows.append({
            "partitioner": result["partitioner"],
            "mode": result["mode"],
            "locality": round(result["routing_locality"], 3),
            "remote rows": round(result["remote_row_fraction"], 3),
            "p99 (ms)": round(1e3 * result["latency_p99"], 3),
        })
    print(format_table(rows, title="Routing locality"))
    print(f"invariant (fleet == single server, bit-exact): "
          f"{'ok' if report['invariant_exact_match'] else 'VIOLATED'}")
    print(f"failover: {report['failover']['failovers']} failovers, "
          f"{report['failover']['requeued']} requeued, "
          f"{report['failover']['completed']} completed")
    out = _bench_out(args, "BENCH_fleet.json")
    out.write_text(json.dumps(report, indent=2))
    print(f"wrote {out} ({len(report['scaling'])} replica counts, "
          f"{len(report['locality'])} locality rows)")
    return 0 if report["invariant_exact_match"] else 1


def _cmd_chaos(args):
    import json

    from .faults import run_fault_bench

    if args.sanitize:
        FLAGS.sanitize = True
    report = run_fault_bench(
        dataset=args.dataset, scale=args.scale, model=args.model,
        epochs=args.epochs, workers=args.workers,
        halt_epoch=args.halt_epoch, seed=args.seed, quick=args.quick)

    rows = []
    for row in report["scenarios"]:
        rows.append({
            "scenario": row["scenario"],
            "plan": row["plan"],
            "epoch overhead": f"{100 * row['epoch_time_overhead']:+.1f}%",
            "retries": row["retries"],
            "giveups": row["giveups"],
            "alive": row["alive_workers"],
            "dropped": row["dropped_vertices"],
            "acc delta": round(row["accuracy_delta"], 3),
        })
    print(format_table(
        rows, title=f"Fault-recovery benchmark ({report['dataset']}, "
                    f"{report['workers']} workers)"))
    resume_ok = report["halt_fired"] and report["resume_exact"]
    print(f"halt@{report['halt_epoch']} fired, resumed curve "
          f"bit-identical: {'ok' if resume_ok else 'VIOLATED'}")
    print(f"fault timeline deterministic under fixed seed: "
          f"{'ok' if report['plan_deterministic'] else 'VIOLATED'}")
    out = _bench_out(args, "BENCH_faults.json")
    out.write_text(json.dumps(report, indent=2))
    print(f"wrote {out} ({len(report['scenarios'])} scenarios)")
    return 0 if resume_ok and report["plan_deterministic"] else 1


def _cmd_fleet_chaos(args):
    import json

    from .errors import ServingError
    from .fleet import run_fleet_chaos_bench

    if args.sanitize:
        FLAGS.sanitize = True
    if args.rate_multiplier < 1:
        print(f"error: --rate-multiplier must be >= 1, got "
              f"{args.rate_multiplier}", file=sys.stderr)
        return 2
    if not 1 <= args.replication <= args.replicas:
        print(f"error: --replication must be in [1, {args.replicas}], "
              f"got {args.replication}", file=sys.stderr)
        return 2
    if args.slo_ms <= 0:
        print(f"error: --slo-ms must be > 0, got {args.slo_ms}",
              file=sys.stderr)
        return 2
    try:
        report = run_fleet_chaos_bench(
            dataset=args.dataset, scale=args.scale, model=args.model,
            train_epochs=args.train_epochs,
            num_replicas=args.replicas,
            replication=args.replication,
            rate_multiplier=args.rate_multiplier,
            num_requests=args.requests, skew=args.skew,
            seed=args.seed, partitioner=args.partitioner,
            slo=args.slo_ms / 1e3, schedule=args.schedule,
            quick=args.quick)
    except ServingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

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
    print(format_table(
        rows, title=f"Fleet chaos ({report['dataset']}, "
                    f"{report['num_replicas']} replicas, "
                    f"k={report['replication']}, "
                    f"SLO={1e3 * report['slo_seconds']:g}ms)"))
    for gate, ok in report["gates"].items():
        print(f"gate {gate}: {'ok' if ok else 'VIOLATED'}")
    out = _bench_out(args, "BENCH_fleet_chaos.json")
    out.write_text(json.dumps(report, indent=2))
    print(f"wrote {out} ({len(report['scenarios'])} scenarios)")
    return 0 if all(report["gates"].values()) else 1


def _cmd_kernel_bench(args):
    from .kernels.bench import (HOTPATH_PATH, format_report,
                                merge_into_hotpath, run_kernel_bench)

    results = run_kernel_bench(quick=args.quick, seed=args.seed)
    print(format_report(results))
    out = merge_into_hotpath(
        results, path=_bench_out(args, HOTPATH_PATH))
    print(f"merged kernel_backends into {out} "
          f"(auto backend: {results['auto_backend']})")
    spmm = results["spmm"]
    accelerated = [name for name in spmm["backends"]
                   if name != "reference"]
    if accelerated and spmm["best_speedup"] <= 1.0:
        print("gate spmm_speedup: VIOLATED (no accelerated backend "
              "beat the reference)", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args):
    # Imported lazily: the analysis layer is light, but the lint
    # command must never become a reason cli startup grows heavier.
    from pathlib import Path

    from .analysis import lint_paths, render_json, render_text, write_json
    from .analysis.baseline import (load_baseline, save_baseline_counts,
                                    to_baseline)

    paths = args.paths or [p for p in ("src", "benchmarks", "examples",
                                       "tools", "tests")
                           if Path(p).exists()]
    if not paths:
        print("error: no lint paths found (run from the repo root or "
              "pass paths)", file=sys.stderr)
        return 2

    try:
        if args.update_baseline:
            existing = load_baseline(args.baseline_file)
            result = lint_paths(paths, baseline=existing)
            current = to_baseline(result.findings)["findings"]
            # Merge: entries for files outside this run's scope are
            # carried over (a partial run must not wipe them); stale
            # entries — scanned-and-unmatched or file gone — are
            # pruned along with everything the fresh counts replace.
            scanned = set(result.scanned_paths)
            kept = {key: count for key, count in existing.items()
                    if key not in current
                    and key.split("::", 1)[0] not in scanned
                    and Path(key.split("::", 1)[0]).exists()}
            written = save_baseline_counts({**kept, **current},
                                           path=args.baseline_file)
            pruned = len(existing) - len(kept) \
                - sum(1 for key in current if key in existing)
            print(f"wrote {written} covering {len(result.findings)} "
                  f"findings across {result.files_scanned} files "
                  f"({pruned} stale entries pruned)")
            return 0
        baseline = load_baseline(args.baseline_file) if args.baseline \
            else None
        result = lint_paths(paths, baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        import json
        print(json.dumps(render_json(result), indent=2))
    else:
        print(render_text(result))
    if args.out:
        write_json(result, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if result.clean else 1


def _cmd_arch_lint(args):
    # Lazy for the same reason as _cmd_lint: the whole-program pass
    # must only ever run when asked for.
    from .analysis import render_json, render_text, write_json
    from .analysis.arch import arch_lint, load_arch_baseline
    from .analysis.baseline import save_baseline
    from .analysis.arch import DEFAULT_ARCH_BASELINE_PATH
    from .analysis.rules.arch import arch_rule_table

    baseline_path = args.baseline_file or DEFAULT_ARCH_BASELINE_PATH
    try:
        if args.update_baseline:
            result = arch_lint(root=args.root,
                               config_path=args.layers)
            written = save_baseline(result.findings,
                                    path=baseline_path)
            print(f"wrote {written} covering {len(result.findings)} "
                  f"findings across {result.files_scanned} modules")
            return 0
        baseline = load_arch_baseline(args.baseline_file) \
            if args.baseline else None
        result = arch_lint(root=args.root, config_path=args.layers,
                           baseline=baseline)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = arch_rule_table()
    if args.format == "json":
        import json
        print(json.dumps(render_json(result, rule_rows=rows),
                         indent=2))
    else:
        print(render_text(result))
    if args.out:
        write_json(result, args.out, rule_rows=rows)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0 if result.clean else 1


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"datasets": _cmd_datasets, "systems": _cmd_systems,
                "train": _cmd_train, "partition": _cmd_partition,
                "advise": _cmd_advise, "reproduce": _cmd_reproduce,
                "serve-bench": _cmd_serve_bench,
                "fleet-bench": _cmd_fleet_bench, "chaos": _cmd_chaos,
                "fleet-chaos": _cmd_fleet_chaos,
                "kernel-bench": _cmd_kernel_bench, "lint": _cmd_lint,
                "arch-lint": _cmd_arch_lint}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
