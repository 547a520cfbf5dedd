"""Sparse-kernel backend shoot-out: registry backends vs the reference.

The kernel registry (:mod:`repro.kernels`) dispatches every aggregation
in the library — GCN/SAGE's mean-aggregation SpMM, GAT's
attention-weighted COO SpMM (forward and reversed), edge softmax and
segment scatter — to a pluggable backend selected by
``FLAGS.kernel_backend``.  This benchmark times each available backend
on those kernels over one seeded power-law block workload, checks
byte-identity against the pinned numpy reference on the same run, and
merges the per-backend rows into ``BENCH_hotpath.json`` under
``kernel_backends`` (next to the block-assembly and sampler rows).

Run standalone::

    python benchmarks/bench_kernel_backends.py [--quick]
"""

import sys

from repro.kernels.bench import (format_report, merge_into_hotpath,
                                 run_kernel_bench)

from common import run_once


def build_results(quick=False):
    results = run_kernel_bench(quick=quick)
    merge_into_hotpath(results)
    return results


def test_kernel_backends(benchmark):
    results = run_once(benchmark, build_results)
    print()
    print(format_report(results))
    # The acceptance bar: at least one accelerated backend beats the
    # reference on the SpMM microbench, without a single bit of drift.
    assert results["spmm"]["best_backend"] != "reference"
    assert results["spmm"]["best_speedup"] > 1.0


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    results = build_results(quick=quick)
    print(format_report(results))
    print(f"merged kernel_backends into BENCH_hotpath.json "
          f"(auto backend: {results['auto_backend']})")
