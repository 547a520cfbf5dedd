"""Where one METIS partition spends its time, level by level.

Partitions one dataset with a ``metis-*`` partitioner and prints, per
coarsening level (0 is the input graph, the last is the coarsest), the
median CPU time over ``--repeat`` runs of each phase:

* ``adjacency`` — the level-0 weighted adjacency (``_weighted_adjacency``);
* ``matching`` / ``contract`` — heavy-edge matching and the contraction
  that builds the next coarser level;
* ``initial`` — the greedy initial partition of the coarsest level;
* ``table`` — the level's connectivity table and loads (``_Level``);
* ``fm`` / ``balance`` — FM refinement and the balance pass that ends it;

then, from one extra counting run, the FM work per level: ``slots``
(permutation slots walked), ``visits`` (slots that scored a table row)
and ``moves`` (FM moves; balance moves are not counted).  ``other`` is
the call's CPU time outside the named phases (projection, capacities).

It wraps the phases from outside, so the same script profiles any
checkout whose ``repro.partition.metis`` has these functions — point
``PYTHONPATH`` at it to compare two trees::

    PYTHONPATH=src python tools/partition_profile.py \\
        [--dataset ogb-products] [--scale 2] [--method metis-ve] \\
        [--parts 4] [--seed 0] [--repeat 3]

Set ``OPENBLAS_NUM_THREADS=1`` first: the times are process CPU time.
"""

from __future__ import annotations

import argparse
import time
from collections import defaultdict
from unittest import mock

import numpy as np

from repro.core.config import make_partitioner
from repro.graph import load_dataset
from repro.partition import metis

PHASES = ("adjacency", "matching", "contract", "initial", "table", "fm",
          "balance")
COUNTS = ("slots", "visits", "moves")


def _cpu():
    """Process CPU seconds: a per-phase profile of one thread, not a
    wall-clock measurement, so it reads the CPU clock directly."""
    return time.process_time()  # repro: noqa[RPR002] CPU, not wall, time


class _CountingTable(np.ndarray):
    """A connectivity table that counts its single-row reads — one per
    scored FM visit, whichever way the refinement loop is written."""

    def __getitem__(self, key):
        if getattr(self, "_reads", None) is not None \
                and isinstance(key, (int, np.integer)):
            self._reads[0] += 1
        return super().__getitem__(key)


class _SpyRng:
    """Forwards the draws ``_refine`` makes and counts permutation
    slots, so the generator's stream is the unwrapped one's."""

    def __init__(self, rng, slots):
        self.rng, self.slots = rng, slots

    def permutation(self, n):
        self.slots[0] += n
        return self.rng.permutation(n)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)


def _profile_once(graph, split, args, counting):
    """One partition with every phase wrapped; returns the assignment,
    ``{level n: {phase: seconds}}``, ``{level n: {count: int}}`` and
    the call's total CPU seconds."""
    times = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(lambda: defaultdict(int))
    in_balance = [False]
    originals = {name: getattr(metis, name) for name in (
        "_weighted_adjacency", "_heavy_edge_matching", "_contract",
        "_initial_partition", "_refine", "_balance_pass", "_Level")}

    def timed(phase, fn, level_of):
        def wrapper(*a, **kw):
            start = _cpu()
            out = fn(*a, **kw)
            times[level_of(a, out)][phase] += _cpu() - start
            return out
        return wrapper

    class Level(originals["_Level"]):
        def __init__(self, adj, *a, **kw):
            start = _cpu()
            super().__init__(adj, *a, **kw)
            times[adj.shape[0]]["table"] += _cpu() - start

        def move(self, v, target):
            if counting and not in_balance[0]:
                counts[self.adj.shape[0]]["moves"] += 1
            return super().move(v, target)

    def refine(level, caps, rng, passes):
        n = level.adj.shape[0]
        slots, reads = [0], [0]
        if counting:
            level.conn = level.conn.view(_CountingTable)
            level.conn._reads = reads
            rng = _SpyRng(rng, slots)
        start = _cpu()
        originals["_refine"](level, caps, rng, passes)
        times[n]["fm"] += _cpu() - start
        if counting:
            counts[n]["slots"] += slots[0]
            counts[n]["visits"] += reads[0]

    def balance(level, rng, *a, **kw):
        reads = getattr(level.conn, "_reads", None)
        before = reads[0] if reads is not None else 0
        in_balance[0] = True
        start = _cpu()
        try:
            return originals["_balance_pass"](level, rng, *a, **kw)
        finally:
            spent = _cpu() - start
            in_balance[0] = False
            n = level.adj.shape[0]
            times[n]["balance"] += spent
            times[n]["fm"] -= spent  # ``_refine`` calls the balance pass
            if reads is not None:
                reads[0] = before

    patches = {
        "_weighted_adjacency": timed(
            "adjacency", originals["_weighted_adjacency"],
            lambda a, out: out.shape[0]),
        "_heavy_edge_matching": timed(
            "matching", originals["_heavy_edge_matching"],
            lambda a, out: a[0].shape[0]),
        "_contract": timed("contract", originals["_contract"],
                           lambda a, out: a[0].shape[0]),
        "_initial_partition": timed(
            "initial", originals["_initial_partition"],
            lambda a, out: a[0].shape[0]),
        "_refine": refine, "_balance_pass": balance, "_Level": Level,
    }
    with mock.patch.multiple(metis, **patches):
        start = _cpu()
        result = make_partitioner(args.method).partition(
            graph, args.parts, split=split,
            rng=np.random.default_rng(args.seed))
        total = _cpu() - start
    return result.assignment, times, counts, total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dataset", default="ogb-products")
    parser.add_argument("--scale", type=float, default=2.0)
    parser.add_argument("--method", default="metis-ve",
                        choices=("metis-v", "metis-ve", "metis-vet"))
    parser.add_argument("--parts", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed,
                        cache=False)
    graph = data.graph
    runs = [_profile_once(graph, data.split, args, counting=False)
            for _ in range(max(args.repeat, 1))]
    counted, _times, counts, _total = _profile_once(graph, data.split,
                                                    args, counting=True)
    if any(not np.array_equal(counted, run[0]) for run in runs):
        raise SystemExit("error: runs disagree on the assignment")

    levels = sorted({n for run in runs for n in run[1]} | set(counts),
                    reverse=True)
    print(f"{args.method} k={args.parts} on {args.dataset} x{args.scale:g} "
          f"(|V|={graph.num_vertices}, |E|={graph.num_edges}, "
          f"seed {args.seed}); CPU ms, median of {len(runs)}")
    header = ["level", "n"] + list(PHASES) + list(COUNTS)
    print("".join(f"{h:>10}" for h in header))
    sums = defaultdict(float)
    for depth, n in enumerate(levels):
        cells = [depth, n]
        for phase in PHASES:
            ms = 1e3 * float(np.median([run[1][n][phase] for run in runs]))
            sums[phase] += ms
            cells.append(f"{ms:.1f}")
        for name in COUNTS:
            sums[name] += counts[n][name]
            cells.append(counts[n][name])
        print("".join(f"{c:>10}" for c in cells))
    print("".join(f"{c:>10}" for c in ["total", ""]
                  + [f"{sums[p]:.1f}" for p in PHASES]
                  + [int(sums[c]) for c in COUNTS]))
    total = 1e3 * float(np.median([run[3] for run in runs]))
    print(f"call {total:.1f} ms, other "
          f"{total - sum(sums[p] for p in PHASES):.1f} ms")


if __name__ == "__main__":
    main()
