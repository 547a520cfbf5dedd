"""The per-call floor of sampled serving — and, with ``--fleet``, the
per-request floor of the fleet — as numbers.

Sampled serving answers about two seeds per ``BatchExecutor.execute``,
so what bounds it is the fixed cost of one sampled batch, not the graph
or the model (docs/architecture.md, "The per-call floor").  This script
prints that cost three ways, on the ``serve-sampled`` configuration of
the benchmark of record (GraphSAGE, fanout 10/10, LRU cache at 10 %):

* interpreter-level calls per 2-seed ``execute`` — ``call`` + ``c_call``
  events of a ``sys.setprofile`` hook, median over the batches.  The
  count is deterministic for a given numpy, so it can be gated where a
  wall-clock number cannot (``tests/serve/test_call_floor.py``);
* the per-layer cumulative table of a cProfile'd ``ServeEngine.run``
  (a 1-replica fleet run, so its admission goes through ``on_admit``
  and ``Router.route`` like any fleet's);
* the top functions by self time of the same profile.

Run after changing anything under a sampled batch::

    PYTHONPATH=src python tools/floor_profile.py [--scale 1.0]

``--fleet`` does the same for the event loop on the ``fleet-steady``
configuration (4 replicas, metis-v, precomputed, LFU 0.1 / 0.1,
``BatchPolicy(16, 0.5 ms)``, spill 64, 100 k req/s), where the unit is
the request: interpreter calls per request of ``FleetEngine.run`` (also
for the ``fleet-chaos`` configuration — crash storm, replication,
detector, breakers, hedging, snapshot recovery — and for the
``serve-sampled`` ``ServeEngine.run`` above), the events each of the
two fleet runs puts on the loop's heap per request, by kind (trace
arrivals never enter it), the share of a
``fleet-steady`` run's process CPU time spent assembling its report,
the garbage collector's passes per generation and milliseconds inside
each of 15 consecutive ``fleet-steady`` runs and as many ``fleet-chaos``
runs (a ``gc.callbacks`` probe; no collection between runs, as in the
record's harness), the GC-tracked objects per request a ``fleet-chaos``
run's event loop leaves alive, and the cumulative table of ``run`` / ``on_admit`` / ``route`` /
``submit`` / ``dispatch`` / ``execute`` / ``lookup``.  The call count
cannot see a per-element C loop (``sorted()`` over the run's 60 000
latencies is one call), which is why the report is timed instead.
``tests/fleet/test_call_floor.py`` gates the call counts and the
objects left alive; run after
changing anything under ``serve/loop.py``, ``serve/batcher.py`` or
``fleet/``.

``--memory`` first prints the import floor every ``peak_rss_mb``
reading starts from: the ``ru_maxrss`` of a fresh interpreter after
``import repro``, its module count, and whether ``scipy.sparse`` got
loaded (it must not: ``tests/analysis/test_import_weight.py``).  Then,
for the record's training and serving configurations (``train-sage``,
``train-gat``, ``serve-sampled``, ``fleet-steady``, ``fleet-chaos``) at
``--scale``, it prints the tracemalloc peak of one run above its start
and the objects the cycle collector had to free, inside the run and in
one collection after it (docs/architecture.md, "Memory of a training
step"; ``tests/core/test_no_cycles.py`` holds the second column at
zero)::

    PYTHONPATH=src python tools/floor_profile.py --memory [--scale 0.3]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

import repro
from repro.core import Trainer
from repro.core.config import TrainingConfig, make_partitioner
from repro.fleet import (FleetEngine, ReplicaRecovery, ResiliencePolicy,
                         RoutingPolicy)
from repro.fleet.chaos import crash_storm
from repro.fleet.engine import _FleetRun
from repro.graph import load_dataset
from repro.nn import build_model, no_grad
from repro.perf import perf_overrides
from repro.serve import (BatchPolicy, LayerwiseEmbeddings, LoadGenerator,
                         ServeEngine)
from repro.serve.loop import EventLoop

#: (row label, file suffix, function name) of the cumulative table.
LAYERS = (
    ("execute", "serve/executor.py", "execute"),
    ("sample", "sampling/neighbor.py", "sample"),
    ("draw", "sampling/base.py", "draw_neighbors"),
    ("build_block", "sampling/block.py", "build_block"),
    ("forward", "nn/layers.py", "forward"),
    ("adjacency", "kernels/adjacency.py", "normalized_block_adjacency"),
    ("gspmm", "kernels/registry.py", "gspmm_forward"),
    ("affine", "nn/tensor.py", "affine"),
    ("fetch", "serve/executor.py", "fetch_seconds"),
    ("lookup", "transfer/tiered.py", "lookup"),
    ("bill", "serve/executor.py", "_bill"),
    ("dispatch", "serve/loop.py", "dispatch"),
    ("loop", "serve/loop.py", "run"),
)

#: The same, for ``--fleet``: the admission path (``on_admit`` ->
#: ``route`` -> the node's ``submit``, which is ``MicroBatcher``'s),
#: then the dispatch path.
FLEET_LAYERS = (
    ("run", "fleet/engine.py", "run"),
    ("on_admit", "fleet/engine.py", "on_admit"),
    ("route", "fleet/router.py", "route"),
    ("submit", "serve/batcher.py", "submit"),
    ("dispatch", "serve/loop.py", "dispatch"),
    ("execute", "serve/executor.py", "execute"),
    ("lookup", "transfer/tiered.py", "lookup"),
)


def build_engine(scale=1.0, seed=3):
    """The ``serve-sampled`` engine and a request trace for it."""
    data = load_dataset("ogb-arxiv", scale=scale, seed=seed, cache=False)
    model = build_model("graphsage", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(seed))
    engine = ServeEngine(data, model, mode="sampled",
                         policy=BatchPolicy(max_batch_size=8,
                                            max_wait=0.0005),
                         fanout=(10, 10), cache_policy="lru",
                         cache_ratio=0.1, seed=seed)
    trace = LoadGenerator(data.test_ids, rate=2000.0,
                          num_requests=max(64, int(6000 * scale)),
                          seed=seed, skew=0.8).generate()
    return engine, trace


def build_fleet(scale=1.0, seed=3, chaos_dir=None):
    """The ``fleet-steady`` engine and its trace — or, given a scratch
    directory for the snapshots, the ``fleet-chaos`` ones.  The model
    is untrained: precomputed answers cost the same calls either way."""
    data = load_dataset("ogb-arxiv", scale=scale, seed=seed, cache=False)
    model = build_model("gcn", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(seed))
    partition = make_partitioner("metis-v").partition(
        data.graph, 4, split=data.split, rng=np.random.default_rng(seed))
    requests = 60000 if chaos_dir is None else 6000
    trace = LoadGenerator(data.test_ids, rate=100000.0,
                          num_requests=max(64, int(requests * scale)),
                          seed=seed, skew=0.8).generate()
    extra = {}
    if chaos_dir is not None:
        span = trace[-1].arrival
        extra = dict(
            schedule=crash_storm(4, start=0.25 * span, down=0.35 * span,
                                 count=2, spacing=0.05 * span),
            replication=2, resilience=ResiliencePolicy(),
            recovery=ReplicaRecovery(chaos_dir,
                                     snapshot_interval=0.1 * span))
    engine = FleetEngine(
        data, model, partition=partition, mode="precomputed",
        policy=BatchPolicy(max_batch_size=16, max_wait=0.0005),
        max_queue=512, cache_policy="lfu", cache_ratio=0.1,
        warm_ratio=0.1, seed=seed,
        embeddings=LayerwiseEmbeddings(model, data.graph, data.features),
        routing=RoutingPolicy(spill_threshold=64, remote_penalty=8.0),
        **extra)
    return engine, trace


class Prebuilt:
    """A partitioner handing back a partition computed beforehand, so a
    training run starts after the partitioning step, as in the record."""

    def __init__(self, result):
        self.result = result

    def partition(self, graph, num_parts, split=None, rng=None):
        return self.result


def build_trainers(scale=1.0, seed=3):
    """``{name: f}``, ``f()`` building a fresh :class:`Trainer` and
    returning its bound ``run``, for the record's
    ``train-sage`` and ``train-gat`` configurations (GraphSAGE on
    ogb-products x2, metis-ve, presample cache 0.1, 10 epochs; GAT on
    ogb-arxiv x2, hash, no cache, 8 epochs; both fanout 25/10, batch
    512, 4 workers, evaluation every epoch)."""
    builders = {}
    for name, dataset, model, partitioner, cache, ratio, epochs in (
            ("train-sage", "ogb-products", "graphsage", "metis-ve",
             "presample", 0.1, 10),
            ("train-gat", "ogb-arxiv", "gat", "hash", None, 0.0, 8)):
        data = load_dataset(dataset, scale=2.0 * scale, seed=seed,
                            cache=False)
        partition = make_partitioner(partitioner).partition(
            data.graph, 4, split=data.split,
            rng=np.random.default_rng(seed))
        config = TrainingConfig(
            model=model, fanout=(25, 10), batch_size=512, num_workers=4,
            partitioner=Prebuilt(partition), cache_policy=cache,
            cache_ratio=ratio, epochs=epochs, eval_every=1, seed=seed)
        builders[name] = (lambda data=data, config=config:
                          Trainer(data, config).run)
    return builders


def memory_of(prepare):
    """``(bytes, objects)`` of the zero-argument callable ``prepare()``
    returns (built untraced, as the record builds its engines outside
    the timed region): the tracemalloc peak of one call above its
    start, and the objects the cycle collector freed inside the call (a
    ``gc.callbacks`` probe) plus in one collection once the callable
    and its result are dropped.  The collector runs as it would anyway;
    it is emptied first, so the count is the run's own cyclic
    garbage."""
    run = prepare()
    freed = [0]

    def probe(phase, info):
        if phase == "stop":
            freed[0] += info["collected"]

    gc.collect()
    gc.callbacks.append(probe)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        with perf_overrides(sanitize=False):
            run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(probe)
    del run
    return peak - start, freed[0] + gc.collect()


IMPORT_FLOOR = """
import resource, sys
import repro
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
      len(sys.modules), "scipy.sparse" in sys.modules)
"""


def import_floor():
    """``(MB, modules, scipy.sparse loaded)`` of a fresh interpreter
    after ``import repro`` (Linux ``ru_maxrss`` is in KiB).  It inherits
    this process's environment: a BLAS thread pool's buffers count."""
    src = Path(repro.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", IMPORT_FLOOR],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    rss, modules, sparse = done.stdout.split()
    return float(rss), int(modules), sparse == "True"


def memory_main(scale, seed):
    rss, modules, sparse = import_floor()
    print(f"import floor: {rss:.1f} MB ru_maxrss after `import repro`, "
          f"{modules} modules, scipy.sparse "
          f"{'LOADED' if sparse else 'not loaded'}\n")
    print(f"memory of one run at scale {scale} (tracemalloc peak above "
          f"the run's start; objects the cycle collector freed in and "
          f"after it)")
    print(f"{'workload':<14} {'peak MB':>8} {'cyclic objects':>15}")
    runs = list(build_trainers(scale, seed).items())
    engine, trace = build_engine(scale, seed)
    runs.append(("serve-sampled", lambda: partial(engine.run, trace)))
    fleet, fleet_trace = build_fleet(scale, seed)
    runs.append(("fleet-steady",
                 lambda: partial(fleet.run, fleet_trace)))
    with tempfile.TemporaryDirectory(prefix="floor-chaos-") as scratch:
        chaos, chaos_trace = build_fleet(scale, seed, scratch)
        runs.append(("fleet-chaos",
                     lambda: partial(chaos.run, chaos_trace)))
        for name, prepare in runs:
            peak, freed = memory_of(prepare)
            print(f"{name:<14} {peak / 2 ** 20:>8.1f} {freed:>15}")


def count_calls(function, *args):
    """Interpreter-level calls (python ``call`` + builtin ``c_call``
    events) made by ``function(*args)``, itself excluded."""
    calls = [0]

    def hook(_frame, event, _arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    sys.setprofile(hook)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    # ``function``'s own frame and the closing ``setprofile``.
    return calls[0] - 2


def calls_per_execute(engine, batch_size=2, batches=20, seed=0):
    """Median :func:`count_calls` of ``batches`` executes of
    ``batch_size`` distinct seeds on the executor of the engine's node,
    sanitizers off (the benchmarked path), after one untimed warm-up
    batch."""
    executor = engine.fleet.replicas[0].executor
    rng = np.random.default_rng(seed)
    counts = []
    with perf_overrides(sanitize=False), no_grad():
        for _ in range(batches + 1):
            batch = rng.choice(executor.dataset.num_vertices,
                               size=batch_size, replace=False)
            counts.append(count_calls(executor.execute, batch, rng))
    return int(np.median(counts[1:]))


def calls_per_request(engine, trace):
    """:func:`count_calls` of one ``engine.run(trace)`` per request of
    the trace, sanitizers off — report assembly included."""
    with perf_overrides(sanitize=False):
        return count_calls(engine.run, trace) / len(trace)


def scheduled_events(engine, trace):
    """``{kind: events}`` one ``engine.run(trace)`` schedules on its
    event loop (``EventLoop.schedule`` calls; trace arrivals are merged
    in, not scheduled), sanitizers off."""
    counts = {}
    schedule = EventLoop.schedule

    def counted(loop, time, phase, kind, payload=None):
        counts[kind] = counts.get(kind, 0) + 1
        return schedule(loop, time, phase, kind, payload)

    EventLoop.schedule = counted
    try:
        with perf_overrides(sanitize=False):
            engine.run(trace)
    finally:
        EventLoop.schedule = schedule
    return counts


def print_scheduled(name, engine, trace):
    """One line: the events per request of :func:`scheduled_events`,
    by kind, most first, with their total."""
    counts = scheduled_events(engine, trace)
    kinds = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    parts = ", ".join(f"{kind} {count / len(trace):.3f} ({count})"
                      for kind, count in kinds)
    total = sum(counts.values())
    print(f"scheduled events per request, {name}: "
          f"{total / len(trace):.3f} ({total}): {parts or 'none'}")


def report_share(engine, trace, repeat=3):
    """``(report seconds, run seconds)`` of process CPU time for one
    ``engine.run(trace)`` (a :class:`FleetEngine`), sanitizers off and
    garbage collected first; the run with the median total of
    ``repeat``.  It reads the host's CPU clock on purpose."""
    report = engine._report
    spent = []

    def timed(run):
        start = time.process_time()  # repro: noqa[RPR002]
        try:
            return report(run)
        finally:
            spent.append(time.process_time() - start)  # repro: noqa[RPR002]

    engine._report = timed
    runs = []
    try:
        with perf_overrides(sanitize=False):
            for _ in range(repeat):
                gc.collect()
                start = time.process_time()  # repro: noqa[RPR002]
                engine.run(trace)
                total = time.process_time() - start  # repro: noqa[RPR002]
                runs.append((total, spent[-1]))
    finally:
        del engine._report
    total, seconds = sorted(runs)[len(runs) // 2]
    return seconds, total


def gc_passes(engine, trace, runs=15):
    """``[(gen-0, gen-1, gen-2 passes, GC seconds)]`` inside each of
    ``runs`` consecutive ``engine.run(trace)`` calls, sanitizers off.
    Nothing is collected between runs and each report is dropped
    before the next run starts, as in the record's harness; GC seconds
    are process CPU time.  It reads the host's CPU clock on purpose."""
    rows = []
    inside = [False]
    began = [0.0]

    def probe(phase, info):
        if not inside[0]:
            return
        if phase == "start":
            began[0] = time.process_time()  # repro: noqa[RPR002]
            return
        row = rows[-1]
        row[info["generation"]] += 1
        row[3] += time.process_time() - began[0]  # repro: noqa[RPR002]

    gc.callbacks.append(probe)
    try:
        with perf_overrides(sanitize=False):
            for _ in range(runs):
                rows.append([0, 0, 0, 0.0])
                inside[0] = True
                engine.run(trace)
                inside[0] = False
    finally:
        gc.callbacks.remove(probe)
    return [tuple(row) for row in rows]


def print_gc_passes(name, engine, trace):
    """The :func:`gc_passes` table of ``name``'s runs, one line a run."""
    rows = gc_passes(engine, trace)
    print(f"\nGC inside {len(rows)} consecutive {name} runs "
          f"(passes of gen 0 / 1 / 2, CPU ms):")
    for run, (young, middle, old, seconds) in enumerate(rows, 1):
        print(f"  run {run:>2}: {young:>3} / {middle:>2} / {old} "
              f"{1e3 * seconds:>7.1f} ms")
    print(f"runs with a gen-2 pass: "
          f"{sum(1 for row in rows if row[2])} of {len(rows)}")


def loop_allocations(engine, trace):
    """GC-tracked objects per request that one run's event loop leaves
    alive, run state included: the change in ``gc.get_count()[0]``
    across the loop of a fresh ``_FleetRun``, collection disabled and
    sanitizers off.  A container kept per request adds 1 per request;
    a collection is due every 700.  One whole run goes first, as in
    the record's repeats: the first run in a process also stocks the
    interpreter's free lists (a tuple taken from one is not counted)."""
    with perf_overrides(sanitize=False):
        engine.run(trace)
    run = _FleetRun(engine, trace)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        with no_grad(), perf_overrides(sanitize=False):
            run.loop.run(run.handlers())
        return (gc.get_count()[0] - before) / len(trace)
    finally:
        if enabled:
            gc.enable()


def profile_run(engine, trace):
    """``pstats.Stats`` of one cProfile'd ``engine.run(trace)``."""
    profiler = cProfile.Profile()
    with perf_overrides(sanitize=False):
        profiler.enable()
        try:
            engine.run(trace)
        finally:
            profiler.disable()
    return pstats.Stats(profiler)


def layer_table(stats, layers=LAYERS):
    """``[(label, calls, cumulative seconds, self seconds)]``, one row
    per layer of ``layers``; a layer matching no profiled function is
    a row of zeros (printed as absent), not a missing row."""
    rows = []
    for label, suffix, name in layers:
        # Several functions may share a name (every layer's
        # ``forward``): the outermost is the one with the most time.
        matches = [entry for (path, _line, function), entry
                   in stats.stats.items()
                   if function == name and path.replace("\\", "/")
                   .endswith("repro/" + suffix)]
        if matches:
            _, calls, self_seconds, cumulative, _ = max(
                matches, key=lambda entry: entry[3])
            rows.append((label, calls, cumulative, self_seconds))
        else:
            rows.append((label, 0, 0.0, 0.0))
    return rows


def top_self(stats, limit=25):
    """``[(self seconds, calls, "file:line(function)")]``, largest
    self time first."""
    rows = []
    for (path, line, function), entry in stats.stats.items():
        _, calls, self_seconds, _, _ = entry
        where = path.replace("\\", "/").rsplit("/", 2)[-2:]
        rows.append((self_seconds, calls,
                     f"{'/'.join(where)}:{line}({function})"))
    rows.sort(reverse=True)
    return rows[:limit]


def print_profile(stats, layers, units, unit):
    """The cumulative table of ``layers`` (with microseconds per
    ``unit``, of which the run had ``units``) and the top functions by
    self time."""
    print(f"{'layer':<12} {'calls':>7} {'cum s':>8} {'self s':>8} "
          f"{'cum us/' + unit:>15}")
    for label, calls, cumulative, self_seconds in layers:
        if not calls:
            print(f"{label:<12} {0:>7} {'absent':>8}")
            continue
        print(f"{label:<12} {calls:>7} {cumulative:>8.3f} "
              f"{self_seconds:>8.3f} {1e6 * cumulative / units:>15.1f}")
    print("\ntop 25 functions by self time")
    for self_seconds, calls, where in top_self(stats):
        print(f"{self_seconds:>8.3f} s {calls:>8} calls  {where}")


def fleet_main(scale, seed):
    engine, trace = build_fleet(scale, seed)
    print(f"calls per request, fleet-steady: "
          f"{calls_per_request(engine, trace):.1f}")
    with tempfile.TemporaryDirectory(prefix="floor-chaos-") as scratch:
        chaos, chaos_trace = build_fleet(scale, seed, scratch)
        print(f"calls per request, fleet-chaos: "
              f"{calls_per_request(chaos, chaos_trace):.1f}")
        print_scheduled("fleet-steady", engine, trace)
        print_scheduled("fleet-chaos", chaos, chaos_trace)
        print(f"objects per request the loop leaves alive, fleet-chaos: "
              f"{loop_allocations(chaos, chaos_trace):.3f}")
        print_gc_passes("fleet-chaos", chaos, chaos_trace)
    print(f"calls per request, serve-sampled: "
          f"{calls_per_request(*build_engine(scale, seed)):.1f}")
    seconds, total = report_share(engine, trace)
    print(f"report, fleet-steady: {1e3 * seconds:.1f} ms of "
          f"{1e3 * total:.1f} ms CPU ({100 * seconds / total:.1f} %)")
    print_gc_passes("fleet-steady", engine, trace)

    stats = profile_run(engine, trace)
    print(f"\ncProfile of FleetEngine.run: {len(trace)} requests "
          f"(profiler overhead included)")
    print_profile(stats, layer_table(stats, FLEET_LAYERS), len(trace),
                  "request")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset and trace scale (default 1.0)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--fleet", action="store_true",
                        help="profile the fleet-steady / fleet-chaos "
                             "event loop per request instead")
    parser.add_argument("--memory", action="store_true",
                        help="print each record configuration's traced "
                             "peak and cyclic garbage per run instead")
    args = parser.parse_args(argv)
    if args.memory:
        return memory_main(args.scale, args.seed)
    if args.fleet:
        return fleet_main(args.scale, args.seed)

    engine, trace = build_engine(args.scale, args.seed)
    print(f"calls per 2-seed execute: {calls_per_execute(engine)}")
    large = min(512, engine.fleet.dataset.num_vertices)
    print(f"calls per {large}-seed execute: "
          f"{calls_per_execute(engine, batch_size=large, batches=3)}")

    stats = profile_run(engine, trace)
    layers = layer_table(stats)
    executes = max(calls for label, calls, _, _ in layers
                   if label == "execute")
    print(f"\ncProfile of ServeEngine.run: {len(trace)} requests, "
          f"{executes} execute calls (profiler overhead included)")
    print_profile(stats, layers, executes, "execute")


if __name__ == "__main__":
    main()
