"""Per-backend sparse-kernel microbenchmarks.

Times every registered-and-available backend on the order-sensitive
kernels over one seeded power-law sampled-block workload — the CSR
mean-aggregation SpMM (GCN/SAGE's hot multiply) and GAT's attention
path: the attention-weighted COO SpMM forward and reversed (backward),
the edge softmax, and the per-edge segment scatter — and verifies on
the same run that each backend's output is *byte-identical* to the
reference, so a speedup row can never hide a numerics change.  The COO
rows time the steady state: the edge list arrives with its forward
segment view (closed form, off the block's CSR) and the reversed
list's is built by the identity check, as training builds it once per
block.  (``gsddmm`` has one shared implementation, so there is nothing
to compare.)

Registered as ``kernels`` in :mod:`repro.bench` (``repro bench kernels``
writes ``BENCH_kernels.json``).  The rows are host wall time, so unlike
the simulated-clock benches the tracked file is a record, not something
CI can regenerate byte for byte.

All timing flows through :func:`repro.perf.profiler.wall_clock` — the
one sanctioned real-time read (RPR002).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import KernelError
from ..graph.generators import power_law_graph
from ..perf import PERF
from ..perf.profiler import wall_clock
from ..sampling import build_block
from ..sampling.base import draw_neighbors
from .adjacency import block_attention_edges, normalized_block_adjacency
from .registry import (available_backends, edge_softmax_forward,
                       gspmm_forward, resolve_backend)

__all__ = ["run_kernel_bench", "tables", "checks"]

#: Full-size workload.
FULL = dict(num_vertices=200_000, avg_degree=16, num_seeds=4096,
            fanout=15, dim=128, rounds=20)

#: Smoke-size workload for CI and ``--quick``.
QUICK = dict(num_vertices=20_000, avg_degree=12, num_seeds=512,
             fanout=10, dim=64, rounds=5)


def _best_of(fn, rounds):
    """Best (minimum) wall time of ``rounds`` calls, in seconds."""
    best = float("inf")
    for _round in range(rounds):
        start = wall_clock()
        fn()
        best = min(best, wall_clock() - start)
    return best


def _workload(params, seed=7):
    """One seeded sampled block plus dense operands.

    Returns ``(csr, coo, x, scores)``: the block's normalized
    aggregation operator, its GAT edge list (self-loops appended),
    float32 source features, and per-edge attention scores.
    """
    rng = np.random.default_rng(seed)
    graph, _ = power_law_graph(params["num_vertices"],
                               params["avg_degree"], rng)
    seeds = rng.choice(params["num_vertices"], params["num_seeds"],
                       replace=False)
    counts = np.full(params["num_seeds"], params["fanout"],
                     dtype=np.int64)
    block = build_block(seeds, *draw_neighbors(graph, seeds, counts, rng))
    csr = normalized_block_adjacency(block, self_loops=True)
    coo = block_attention_edges(block)

    x = rng.standard_normal((block.num_src, params["dim"])) \
        .astype(np.float32)
    scores = rng.standard_normal(coo.nnz).astype(np.float32)
    return csr, coo, x, scores


def _time_backends(kernel, run, reference_out, rounds):
    """Per-backend timing rows for one kernel.

    ``run(backend=name)`` must return the kernel's output; each
    backend's bytes are compared against ``reference_out`` so the table
    doubles as a conformance check.
    """
    rows = {}
    reference_ms = None
    for name in available_backends():
        out = run(backend=name)
        identical = bool(np.asarray(out).tobytes()
                         == np.asarray(reference_out).tobytes())
        if not identical:
            raise KernelError(
                f"backend {name!r} diverged from the reference on "
                f"{kernel}")
        before = PERF.snapshot()
        elapsed = _best_of(partial(run, backend=name), rounds)
        delta = PERF.delta(before)
        rows[name] = {
            "ms": elapsed * 1e3,
            "bit_identical": identical,
            "fallbacks": int(delta.get("kernel_fallbacks", 0)),
        }
        if name == "reference":
            reference_ms = rows[name]["ms"]
    for name, row in rows.items():
        row["speedup"] = reference_ms / row["ms"]
    return rows


def _summarize(rows, extra):
    accelerated = {name: row for name, row in rows.items()
                   if name != "reference" and row["fallbacks"] == 0}
    best = max(accelerated, key=lambda n: accelerated[n]["speedup"]) \
        if accelerated else "reference"
    summary = {"backends": rows, "best_backend": best,
               "best_speedup": (accelerated[best]["speedup"]
                                if accelerated else 1.0)}
    summary.update(extra)
    return summary


def run_kernel_bench(quick=False, seed=7):
    """Time every available backend on each kernel; returns a
    JSON-serializable dict of per-backend rows.

    Backends whose output is not byte-identical to the reference abort
    the run with :class:`~repro.errors.KernelError` — the bench never
    reports a speedup for different math.
    """
    params = dict(QUICK if quick else FULL)
    csr, coo, x, scores = _workload(params, seed=seed)
    rounds = params["rounds"]

    dim = params["dim"]
    kernels = {
        "spmm": ({"nnz": csr.nnz, "dim": dim},
                 partial(gspmm_forward, csr, x)),
        "coo_spmm": ({"nnz": coo.nnz, "dim": dim},
                     partial(gspmm_forward, coo, x, values=scores)),
        "coo_spmm_reverse": (
            {"nnz": coo.nnz, "dim": dim},
            partial(gspmm_forward, coo.reverse(), x[:coo.shape[0]],
                    values=scores)),
        "segment_scatter": (
            {"nnz": coo.nnz, "dim": 1},
            partial(gspmm_forward, coo.segments().selection,
                    scores[:, None], op="copy_rhs")),
        "edge_softmax": ({"nnz": coo.nnz},
                         partial(edge_softmax_forward, coo, scores)),
    }
    results = {
        "workload": {key: int(value) if isinstance(value, int) else value
                     for key, value in params.items()},
        "auto_backend": resolve_backend("auto").name,
    }
    for kernel, (extra, run) in kernels.items():
        rows = _time_backends(kernel, run, run(backend="reference"),
                              rounds)
        results[kernel] = _summarize(rows, extra)
    return results


def tables(report):
    """Per-kernel, per-backend timing rows."""
    # Lazy: core sits above kernels in the layer contract.
    from ..core import format_table
    rows = []
    kernels = [key for key, value in report.items()
               if isinstance(value, dict) and "backends" in value]
    for kernel in kernels:
        for name, row in report[kernel]["backends"].items():
            rows.append({
                "kernel": kernel,
                "backend": name,
                "ms": round(row["ms"], 3),
                "speedup": round(row["speedup"], 2),
                "bit_identical": row["bit_identical"],
                "fallbacks": row["fallbacks"],
            })
    table = format_table(rows, title="Sparse-kernel backends "
                                     "(vs pinned reference)")
    return f"{table}\nauto backend: {report['auto_backend']}"


def checks(report):
    """Exit rule: an accelerated backend, when one is importable, beats
    the reference on the SpMM."""
    spmm = report["spmm"]
    accelerated = [name for name in spmm["backends"]
                   if name != "reference"]
    return {"gate spmm_speedup":
            not accelerated or spmm["best_speedup"] > 1.0}
