"""One workload, measured in this process.

``run.py`` starts this file in a fresh interpreter whose environment it
built itself (BLAS threads pinned to 1), so numpy initialises under the
recorded settings.  The last line of standard output is one JSON
document; everything the parent reports comes from it.

``--trace 0``: set the workload up ``SETUPS`` times, each time from
another seed derived from ``--seed`` (→ ``setup_s``, their median), then
repeat the timed region untraced until ``--seconds`` of wall time have
passed (at least three times) and report each end-to-end metric per
repeat.  Timed regions are read on ``workloads.CLOCK`` (CPU seconds) and
divided by how slow the machine ran a fixed reference unit right before
and after (``Reference``); raw CPU and wall seconds are recorded next to
them.

``--trace 1``: one traced set-up, then untraced and traced repeats
alternating (at least two of each) so the tracing overhead is measured
against this process's own untraced repeats; per-layer metrics are the
median over the traced repeats.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

from repro.perf import PERF

from metrics import LayerView, layer_metrics, summarize
from trace import RUN_PROBES, SETUP_PROBES, Probes, Tracer
from workloads import CLOCK, WORKLOADS

#: Set-ups per untraced run.  METIS's cost is chaotic in its rng (one
#: graph, six rng seeds: 0.87-1.62 s), so one seed's set-up time says
#: little about the code; the median over five derived seeds does
#: (README, "Steadiness").
SETUPS = 5
SETUP_SEED_STRIDE = 1000
MIN_UNTRACED_REPEATS = 3
MIN_TRACED_REPEATS = 2

#: One traced repeat: its outcome and stopwatch, the (first, last) range
#: of its spans, the index of the span around the timed region, the
#: probes' counters and the ``PERF`` delta.
TracedRepeat = collections.namedtuple(
    "TracedRepeat", "outcome watch spans root counts perf")


def environment():
    """What this interpreter actually runs with."""
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in
                         ("name", "version", "openblas configuration")
                         ).strip(),
        "threads": {name: value
                    for name, value in sorted(os.environ.items())
                    if name.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Reference:
    """A fixed unit of work owned by the benchmark, timed around every
    region to read how fast the machine runs *right now*.

    The reference box changes speed by up to 2x for minutes at a time
    with no steal and no waiting (CPU seconds grow with wall seconds:
    a neighbour on the core or the memory bus), the same factor for
    every workload, so no clock removes it.  The unit mixes what the
    workloads are made of: an interpreter loop, single-thread BLAS, a
    sort and an ``np.add.at`` scatter.  It calls nothing in ``repro``,
    so a change to the program cannot move it.
    """

    #: One unit on the quiet reference box.  A constant, so reported
    #: seconds stay comparable across runs, commits and machines.
    NOMINAL_S = 0.046
    #: Units per reading; a region is bracketed by two readings.
    UNITS = 2

    def __init__(self):
        rng = np.random.default_rng(0)
        self.dense = rng.random((256, 256)).astype(np.float32)
        self.index = rng.integers(0, 50000, 150000)
        self.rows = rng.random((150000, 8)).astype(np.float32)

    def unit(self):
        table, total = {}, 0
        for i in range(80000):
            table[i & 1023] = total
            total += table.get((i * 7) & 1023, 0) & 255
        product = self.dense
        for _ in range(48):
            product = product @ self.dense
            product *= 1.0 / 256
        np.unique(self.index)
        scattered = np.zeros((50000, 8), np.float32)
        np.add.at(scattered, self.index, self.rows)

    def read(self):
        """Seconds each of ``UNITS`` units took."""
        seconds = []
        for _ in range(self.UNITS):
            started = CLOCK()
            self.unit()
            seconds.append(CLOCK() - started)
        return seconds


class Stopwatch:
    """One timed region: ``cpu`` seconds (``workloads.CLOCK``), ``wall``
    seconds, the machine's ``slowdown`` around it, and ``seconds`` —
    CPU seconds at reference speed, the reading of record."""

    def __init__(self, reference):
        self.reference = reference

    def __enter__(self):
        self.units = self.reference.read()
        self.wall_started = time.perf_counter()
        self.started = CLOCK()
        return self

    def __exit__(self, *_exc):
        self.cpu = CLOCK() - self.started
        self.wall = time.perf_counter() - self.wall_started
        self.units += self.reference.read()
        self.slowdown = statistics.median(self.units) \
            / self.reference.NOMINAL_S
        self.seconds = self.cpu / self.slowdown


def untraced_repeat(workload, state, reference):
    job = workload.prepare(state)
    try:
        with Stopwatch(reference) as watch:
            result = workload.run(job)
        return workload.check(state, job, result, watch.started), watch
    finally:
        workload.cleanup(job)


def traced_repeat(workload, state, reference, tracer, probes, run_id):
    """One repeat under the full probe set."""
    tracer.counts = {}
    first = len(tracer.name_id)
    tracer.begin_run(run_id)
    perf_before = PERF.snapshot()
    job = None
    try:
        with probes.installed(RUN_PROBES):
            with tracer.span("bench.prepare"):
                job = workload.prepare(state)
            with Stopwatch(reference) as watch, \
                    tracer.span("bench.repeat") as root:
                result = workload.run(job)
        perf = PERF.delta(perf_before)
        last = len(tracer.name_id)
        outcome = workload.check(state, job, result, watch.started)
    finally:
        if job is not None:
            workload.cleanup(job)
    return TracedRepeat(outcome, watch, (first, last), root,
                        dict(tracer.counts), perf)


def layer_self_shares(table):
    """Share of ``table``'s root time spent in each layer's own code
    (``bench`` = covered by no probe)."""
    shares = collections.defaultdict(float)
    for name, seconds in sorted(table.self_time.items()):
        shares[name.split(".", 1)[0]] += seconds / table.roots_total
    return shares


def keep_going(count, minimum, began, last_wall, seconds):
    """Repeat until the (wall-clock) budget is spent, without starting
    a repeat that would overshoot it by more than half its length."""
    if count < minimum:
        return True
    elapsed = time.perf_counter() - began
    return elapsed + 0.5 * last_wall < seconds


def measure_untraced(workload, args, reference):
    tracer = Tracer()
    setups = []
    # Derived seeds first, ``--seed`` last: its state is measured on.
    for round_ in reversed(range(SETUPS)):
        seed = args.seed + SETUP_SEED_STRIDE * round_
        with Stopwatch(reference) as watch:
            state = workload.setup(seed, args.scale, tracer)
        setups.append(watch)

    outcomes, watches = [], []
    began = time.perf_counter()
    while keep_going(len(watches), MIN_UNTRACED_REPEATS, began,
                     watches[-1].wall if watches else 0.0,
                     args.seconds):
        outcome, watch = untraced_repeat(workload, state, reference)
        outcomes.append(outcome)
        watches.append(watch)

    end_to_end = {
        "setup_s": summarize(w.seconds for w in setups),
        "throughput_per_s": summarize(
            o.work / w.seconds for o, w in zip(outcomes, watches)),
        "time_to_target_s": summarize(
            w.seconds if o.time_to_target_s is None
            else o.time_to_target_s / w.slowdown
            for o, w in zip(outcomes, watches)),
        "sim_time_ms": summarize(o.sim_time_ms for o in outcomes),
        "peak_rss_mb": summarize([peak_rss_mb()]),
    }
    return outcomes, watches, {
        "end_to_end": end_to_end,
        "setup_cpu_s": [w.cpu for w in setups],
        "setup_wall_s": [w.wall for w in setups],
        "setup_slowdown": [w.slowdown for w in setups]}


def measure_traced(workload, args, reference):
    tracer = Tracer()
    probes = Probes(tracer)
    tracer.begin_run("setup")
    with probes.installed(SETUP_PROBES):
        with tracer.span("bench.setup"):
            state = workload.setup(args.seed, args.scale, tracer)
    restored = probes.restored()
    setup_range = (0, len(tracer.name_id))
    setup_table = tracer.table(*setup_range)

    outcomes, untraced, traced = [], [], []
    began = time.perf_counter()
    while keep_going(len(traced), MIN_TRACED_REPEATS, began,
                     traced[-1].watch.wall if traced else 0.0,
                     args.seconds):
        outcome, watch = untraced_repeat(workload, state, reference)
        outcomes.append(outcome)
        untraced.append(watch)
        probes = Probes(tracer)
        repeat = traced_repeat(workload, state, reference, tracer,
                               probes, f"repeat-{len(traced)}")
        restored = restored and probes.restored()
        outcomes.append(repeat.outcome)
        traced.append(repeat)

    overhead = statistics.median(t.watch.seconds for t in traced) \
        / statistics.median(w.seconds for w in untraced) - 1.0
    per_repeat, shares = [], []
    nesting_errors = [str(e) for e in setup_table.nesting_errors()]
    self_sum_error = 0.0
    for repeat in traced:
        table = tracer.table(*repeat.spans)
        nesting_errors.extend(str(e) for e in table.nesting_errors())
        self_sum_error = max(
            self_sum_error,
            abs(sum(table.self_time.values()) - table.roots_total)
            / table.roots_total)
        counts = dict(repeat.counts, **repeat.outcome.counts)
        counts["trace.overhead_share"] = overhead
        counts["trace.wall_per_cpu"] = repeat.watch.wall \
            / repeat.watch.cpu
        shares.append(layer_self_shares(
            tracer.table(repeat.root, repeat.spans[1])))
        per_repeat.append(layer_metrics(LayerView(
            [setup_table, table], table, counts, repeat.perf)))

    per_layer = {}
    for name in per_repeat[0]:
        values = [metrics[name] for metrics in per_repeat]
        per_layer[name] = {"value": statistics.median(values),
                           "values": values}
    if args.spans:
        tracer.dump(args.spans, [setup_range, traced[-1].spans])
    return outcomes, untraced + [t.watch for t in traced], {
        "per_layer": per_layer,
        "layer_self_share": {
            layer: statistics.median(s[layer] for s in shares)
            for layer in sorted(shares[0])},
        "checks": {"probes_restored": restored,
                   "nesting_errors": nesting_errors[:10],
                   "self_sum_error_share": self_sum_error}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        required=True)
    parser.add_argument("--spans", default=None,
                        help="write the traced spans to this file")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    measure = measure_traced if args.trace else measure_untraced
    outcomes, watches, document = measure(workload, args, Reference())

    digests = sorted({o.digest for o in outcomes})
    failed = sum(o.failed for o in outcomes)
    checks = document.setdefault("checks", {})
    checks["digests_agree"] = len(digests) == 1
    correct = len(digests) == 1 and failed == 0 \
        and checks.get("probes_restored", True) \
        and not checks.get("nesting_errors")
    document.update(
        workload=workload.name, seed=args.seed, scale=args.scale,
        seconds=args.seconds, trace=args.trace, correct=correct,
        attempted=sum(o.attempted for o in outcomes), failed=failed,
        digest=digests[0], repeats=len(watches),
        cpu_s=[w.cpu for w in watches], wall_s=[w.wall for w in watches],
        slowdown=[w.slowdown for w in watches],
        notes=outcomes[-1].notes, environment=environment())
    sys.stdout.flush()
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
