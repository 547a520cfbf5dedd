"""Sparse-kernel backend shoot-out: registry backends vs the reference.

The kernel registry (:mod:`repro.kernels`) dispatches every aggregation
in the library — GCN/SAGE's mean-aggregation SpMM, GAT's
attention-weighted COO SpMM (forward and reversed), edge softmax and
segment scatter — to a pluggable backend selected by
``FLAGS.kernel_backend``.  This benchmark times each available backend
on those kernels over one seeded power-law block workload, checks
byte-identity against the pinned numpy reference on the same run, and
writes the per-backend rows to ``BENCH_kernels.json`` — ``repro bench
kernels`` at full size.

Run standalone::

    python benchmarks/bench_kernel_backends.py [--quick]
"""

from repro.bench import run_bench

from common import bench_cli, run_once


def test_kernel_backends(benchmark, tmp_path):
    # ``BENCH_kernels.json`` is host wall time — a record only the
    # explicit ``repro bench kernels`` / ``__main__`` form rewrites; a
    # test run must leave the checkout clean.
    report, ok = run_once(benchmark, lambda: run_bench(
        "kernels", out=tmp_path / "BENCH_kernels.json"))
    # The acceptance bar: at least one accelerated backend beats the
    # reference on the SpMM microbench, without a single bit of drift.
    assert ok
    assert report["spmm"]["best_backend"] != "reference"
    assert report["spmm"]["best_speedup"] > 1.0


if __name__ == "__main__":
    bench_cli("kernels")
