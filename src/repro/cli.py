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
``bench``
    Run one registered benchmark (a name in the table
    :data:`repro.bench.BENCHES`), print its tables and checks, and
    write its ``BENCH_<name>.json``.
    Exits 1 when a check is violated or the driver fails.  Sweeps other
    than the tracked one go through the driver's keywords in Python,
    not through flags.
``lint``
    Run the static analyzer over the given paths (default: ``src
    benchmarks examples tools tests``): every file is parsed once and
    checked by the per-file determinism & numerics rules (``RPRnnn``)
    and — when ``src/repro`` is among the scanned paths — the
    whole-program architectural rules (``ARCnnn``: layering contract,
    kernel-seam and billing-seam bypasses, simulated-clock purity, RNG
    provenance, public-API drift).  Text/JSON reports; see
    :mod:`repro.analysis`.  Exits 1 on any finding not marked
    ``# repro: noqa``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import FLAGS, Trainer, TrainingConfig, __version__, load_dataset
from .bench import BENCHES, run_bench
from .core import format_table, make_partitioner, table1_rows
from .core.advisor import advise
from .errors import ReproError
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
                            "preserving, see repro.perf.sanitize)")

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

    bench = sub.add_parser(
        "bench",
        help="run one registered benchmark and write its "
             "BENCH_<name>.json")
    bench.add_argument("name", choices=list(BENCHES))
    bench.add_argument("--quick", action="store_true",
                       help="small smoke-test preset; writes the "
                            "git-ignored BENCH_<name>.quick.json")
    bench.add_argument("--sanitize", action="store_true",
                       help="arm the runtime sanitizers for the run")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="write the report here instead")
    bench.add_argument("--schedule", default=None, metavar="SPEC",
                       help="fleet-chaos only: replace the composed "
                            "crash storm with a faults.plan spec "
                            "(times in simulated seconds, wN = replica "
                            "id), e.g. 'crash@0.002+0.003:w0'")

    lint = sub.add_parser(
        "lint",
        help="run the static analyzer (RPR per-file and ARC "
             "architectural rules)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to scan (default: src "
                           "benchmarks examples tools tests); the ARC "
                           "rules run when src/repro is inside them")
    lint.add_argument("--format", default="text",
                      choices=["text", "json"],
                      help="stdout report format")
    lint.add_argument("--out", default=None, metavar="PATH",
                      help="also write the JSON report to PATH")
    return parser


def _cmd_datasets(_args):
    print(format_table(dataset_table(), title="Table 2: datasets"))
    return 0


def _cmd_systems(_args):
    print(format_table(table1_rows(), title="Table 1: systems"))
    return 0


def _note_unpinned_blas():
    """One stderr line when nothing caps the BLAS thread pool: a default
    pool spends longer handing out these small products than on them."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    if (os.cpu_count() or 1) > 1 \
            and not any(name in os.environ for name in names):
        print(f"note: none of {', '.join(names)} is set; training is "
              f"usually faster with OPENBLAS_NUM_THREADS=1 (README, "
              f"Performance)", file=sys.stderr)


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
    _note_unpinned_blas()
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
    try:
        result = Trainer(dataset, config).run(
            checkpointer=checkpointer, resume=args.resume,
            faults=args.faults)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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


def _cmd_bench(args):
    sweep = {}
    if args.schedule is not None:
        if args.name != "fleet-chaos":
            print("error: --schedule applies to fleet-chaos only",
                  file=sys.stderr)
            return 2
        sweep["schedule"] = args.schedule
    if args.sanitize:
        FLAGS.sanitize = True
    try:
        _report, ok = run_bench(args.name, quick=args.quick,
                                out=args.out, **sweep)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def _cmd_lint(args):
    # Imported here: only this command needs the analyzer.
    from pathlib import Path

    from .analysis import lint_paths, render_json, render_text, write_json

    paths = args.paths or [p for p in ("src", "benchmarks", "examples",
                                       "tools", "tests")
                           if Path(p).exists()]
    if not paths:
        print("error: no lint paths found (run from the repo root or "
              "pass paths)", file=sys.stderr)
        return 2

    try:
        result = lint_paths(paths)
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


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"datasets": _cmd_datasets, "systems": _cmd_systems,
                "train": _cmd_train, "partition": _cmd_partition,
                "advise": _cmd_advise, "reproduce": _cmd_reproduce,
                "bench": _cmd_bench, "lint": _cmd_lint}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
