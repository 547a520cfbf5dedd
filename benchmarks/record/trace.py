"""In-memory span tracer and the probes that install it from outside.

The benchmark of record may not edit the program it measures, so the
per-layer numbers come from *probes*: public callables of ``repro.*``
rebound to timing wrappers for the duration of a traced repeat and
restored (by identity) afterwards.  A probe on a module-level function
also rebinds every ``from ... import`` alias of it in the loaded
``repro.*`` modules, because callers hold their own reference.

Spans live in flat parallel lists (name id, start, end, parent index)
— floats and ints only, so a 200 k-span fleet run does not hand the
garbage collector 200 k tracked tuples — and are written out once, at
exit.  A span's *self* time is its duration minus the part its direct
children cover; a layer's ``_s`` total counts outermost spans only, so
a probe nested inside a same-named probe is not billed twice.

Per-event helpers called more than ~10x per request
(``next_dispatch_time``, ``__len__``) are deliberately not probed:
their cost belongs to the event loop's self time, and wrapping them
would make the tracer the thing being measured.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

__all__ = ["Tracer", "Probes", "SpanTable", "SETUP_PROBES", "RUN_PROBES"]

_MISSING = object()
#: Span clock.  Not ``workloads.CLOCK``: a CPU-clock read is a system
#: call, too slow for 200 k spans.
_clock = time.perf_counter


class Tracer:
    """Span recorder.  Cheap enough to sit on per-request paths: one
    traced call is two clock reads and four list appends."""

    def __init__(self):
        self.names = []            # interned span names
        self._name_ids = {}
        self.name_id = []          # per span: index into ``names``
        self.start = []
        self.end = []
        self.parent = []           # per span: parent span index or -1
        self.current = -1
        self.runs = []             # (run id, first span index)
        self.counts = {}           # counters bumped by probe hooks

    def intern(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def begin_run(self, run_id):
        """Spans recorded from here on belong to ``run_id``."""
        self.runs.append((run_id, len(self.name_id)))

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name_id):
        index = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = index
        self.start.append(_clock())
        return index

    def _close(self, index):
        self.end[index] = _clock()
        self.current = self.parent[index]

    @contextmanager
    def span(self, name):
        """Record the ``with`` body as one span (the benchmark's own
        calls into a layer: roots, dataset loads)."""
        index = self._open(self.intern(name))
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, fn, name, after=None):
        """``fn`` with every call recorded as a span called ``name``.

        ``name`` may be a callable ``name(*args)`` for spans labelled by
        their receiver (one per partitioner).  ``after(tracer, args,
        result)`` runs once the span is closed, to count work where it
        happens.
        """
        fixed_id = None if callable(name) else self.intern(name)
        name_ids, parents, starts, ends = \
            self.name_id, self.parent, self.start, self.end
        clock = _clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # _open/_close inlined: two method calls per span are a
            # measurable share of a 10 us fleet request.
            index = len(name_ids)
            name_ids.append(fixed_id if fixed_id is not None
                            else self.intern(name(*args)))
            parents.append(self.current)
            ends.append(0.0)
            self.current = index
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                self.current = parents[index]
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def table(self, first, last):
        """A :class:`SpanTable` over spans ``first..last``."""
        return SpanTable(self, first, last)

    def dump(self, path, ranges):
        """Write the spans of the given ``(first, last)`` index ranges
        as JSON: one row per span — name, layer, start, end, parent
        row (-1 for a root) and run id."""
        keep = [i for first, last in ranges for i in range(first, last)]
        row_of = {index: row for row, index in enumerate(keep)}
        run_ids = [run_id for run_id, _first in self.runs]
        run_firsts = [first for _run_id, first in self.runs]
        rows = []
        for index in keep:
            name = self.names[self.name_id[index]]
            run = bisect.bisect_right(run_firsts, index) - 1
            rows.append([name, name.split(".", 1)[0],
                         self.start[index], self.end[index],
                         row_of.get(self.parent[index], -1),
                         run_ids[run] if run >= 0 else None])
        document = {"columns": ["name", "layer", "start", "end",
                                "parent", "run"],
                    "spans": rows}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class SpanTable:
    """Per-name totals over a contiguous slice of a tracer's spans."""

    def __init__(self, tracer, first, last):
        self.tracer = tracer
        self.first, self.last = first, last
        names = tracer.names
        self.total = {}            # outermost spans only
        self.self_time = {}
        self.calls = {}
        self.num_spans = last - first
        self.roots_total = 0.0     # summed duration of parentless spans
        child_time = [0.0] * (last - first)
        for i in range(first, last):
            parent = tracer.parent[i]
            if parent >= first:
                child_time[parent - first] += \
                    tracer.end[i] - tracer.start[i]
            else:
                self.roots_total += tracer.end[i] - tracer.start[i]
        for i in range(first, last):
            name = names[tracer.name_id[i]]
            duration = tracer.end[i] - tracer.start[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) \
                + duration - child_time[i - first]
            if not self._has_ancestor(i, tracer.name_id[i]):
                self.total[name] = self.total.get(name, 0.0) + duration

    def _has_ancestor(self, index, name_id):
        tracer = self.tracer
        parent = tracer.parent[index]
        while parent >= self.first:
            if tracer.name_id[parent] == name_id:
                return True
            parent = tracer.parent[parent]
        return False

    def total_under(self, name, ancestor):
        """Summed duration of ``name`` spans that sit (at any depth)
        below an ``ancestor`` span."""
        tracer = self.tracer
        if name not in tracer._name_ids \
                or ancestor not in tracer._name_ids:
            return 0.0
        wanted = tracer._name_ids[name]
        above = tracer._name_ids[ancestor]
        out = 0.0
        for i in range(self.first, self.last):
            if tracer.name_id[i] == wanted \
                    and self._has_ancestor(i, above):
                out += tracer.end[i] - tracer.start[i]
        return out

    def intervals(self, opens, closes):
        """Durations from each ``opens`` span's start to the next
        ``closes`` span's end (a training step: ``zero_grad`` ..
        ``optimizer.step``)."""
        tracer = self.tracer
        open_id = tracer._name_ids.get(opens)
        close_id = tracer._name_ids.get(closes)
        out = []
        began = None
        for i in range(self.first, self.last):
            if tracer.name_id[i] == open_id:
                began = tracer.start[i]
            elif tracer.name_id[i] == close_id and began is not None:
                out.append(tracer.end[i] - began)
                began = None
        return out

    def nesting_errors(self):
        """Spans that end before they start, escape their parent, or
        whose children outlast them (negative self time).  Empty on a
        well-formed trace."""
        tracer = self.tracer
        slack = 1e-9
        errors = []
        for i in range(self.first, self.last):
            if tracer.end[i] + slack < tracer.start[i]:
                errors.append((i, "ends before it starts"))
            parent = tracer.parent[i]
            if parent >= self.first and (
                    tracer.start[i] + slack < tracer.start[parent]
                    or tracer.end[i] > tracer.end[parent] + slack):
                errors.append((i, "escapes its parent"))
        errors.extend((name, "negative self time")
                      for name, value in self.self_time.items()
                      if value < -1e-6)
        return errors


# ----------------------------------------------------------------------
# Probe table: (module, class or None, attribute, span name, hook)
# ----------------------------------------------------------------------
def _partition_name(partitioner, *_args):
    return "partition." + partitioner.name.replace("-", "_")


def _after_sample(tracer, _args, subgraph):
    tracer.count("sampling.edges_sampled", subgraph.total_edges)
    tracer.count("sampling.input_vertices", len(subgraph.input_nodes))


def _after_lookup(tracer, _args, lookup):
    tracer.count("transfer.rows_looked_up", len(lookup.vertices))
    tracer.count("transfer.hot_hits", lookup.num_hot)
    tracer.count("transfer.warm_hits", lookup.num_warm)


def _after_loss(tracer, _args, loss):
    value = loss.item()
    if value != value or value in (float("inf"), float("-inf")):
        tracer.count("nn.nonfinite_steps")


def _after_checkpoint(tracer, args, _result):
    tracer.count("faults.checkpoint_bytes",
                 args[0].path.stat().st_size)


#: Probes live while the benchmark sets a workload up.  Set-up trains
#: throw-away models for the serving workloads; probing that training
#: layer by layer would bill it to the timed region's layer metrics,
#: so set-up only times the steps ``setup_s`` is made of.
SETUP_PROBES = (
    ("repro.partition.base", "Partitioner", "partition",
     _partition_name, None),
    ("repro.partition.replication", None, "k_redundant_replication",
     "partition.replication", None),
    ("repro.partition.replication", None, "partition_aware_replication",
     "partition.replication", None),
    ("repro.serve.requests", "LoadGenerator", "generate",
     "serve.loadgen", None),
    ("repro.serve.precompute", "LayerwiseEmbeddings", "__init__",
     "serve.precompute", None),
    ("repro.fleet.shards", "ShardMap", "__init__",
     "fleet.shardmap_build", None),
    ("repro.core.config", None, "make_cache",
     "transfer.make_cache", None),
    ("repro.transfer.tiered", None, "make_tiered_cache",
     "transfer.make_cache", None),
)

#: Probes live during a traced repeat (set-up probes included).
RUN_PROBES = SETUP_PROBES + (
    ("repro.core.trainer", "Trainer", "run", "core.trainer_run", None),
    ("repro.core.trainer", None, "evaluate_model",
     "core.evaluate", None),
    ("repro.dist.engine", "SyncEngine", "run_epoch",
     "dist.run_epoch", None),
    ("repro.sampling.neighbor", "NeighborSampler", "sample",
     "sampling.sample", _after_sample),
    ("repro.sampling.base", None, "draw_neighbors",
     "sampling.draw_neighbors", None),
    ("repro.sampling.block", None, "build_block",
     "sampling.build_block", None),
    ("repro.transfer.methods", "BatchStats", "from_subgraph",
     "transfer.batchstats", None),
    ("repro.transfer.methods", "TransferMethod", "transfer",
     "transfer.transfer", None),
    ("repro.transfer.tiered", "TieredCache", "lookup",
     "transfer.tiered_lookup", _after_lookup),
    ("repro.kernels.registry", None, "gspmm_forward",
     "kernels.gspmm", None),
    ("repro.kernels.registry", None, "gsddmm_forward",
     "kernels.gsddmm", None),
    ("repro.kernels.registry", None, "edge_softmax_forward",
     "kernels.edge_softmax", None),
    ("repro.kernels.adjacency", None, "normalized_block_adjacency",
     "kernels.adjacency_build", None),
    ("repro.nn.layers", "GCN", "forward", "nn.forward", None),
    ("repro.nn.layers", "GraphSAGE", "forward", "nn.forward", None),
    ("repro.nn.layers", "GAT", "forward", "nn.forward", None),
    ("repro.nn.loss", None, "softmax_cross_entropy",
     "nn.loss", _after_loss),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward", None),
    ("repro.nn.optim", "Adam", "step", "nn.optimizer_step", None),
    ("repro.nn.optim", "Optimizer", "zero_grad", "nn.zero_grad", None),
    ("repro.nn.layers", "Module", "state_dict", "nn.state_dict", None),
    ("repro.serve.engine", "ServeEngine", "run",
     "serve.engine_run", None),
    ("repro.serve.batcher", "MicroBatcher", "submit",
     "serve.batcher", None),
    ("repro.serve.batcher", "MicroBatcher", "take",
     "serve.batcher", None),
    ("repro.serve.executor", "BatchExecutor", "execute",
     "serve.execute", None),
    ("repro.serve.executor", "BatchExecutor", "fetch_seconds",
     "serve.fetch", None),
    ("repro.serve.precompute", "LayerwiseEmbeddings", "rowwise_logits",
     "serve.rowwise_logits", None),
    ("repro.fleet.engine", "FleetEngine", "run",
     "fleet.engine_run", None),
    ("repro.fleet.router", "Router", "route", "fleet.route", None),
    ("repro.fleet.router", "Router", "route_hedge",
     "fleet.route_hedge", None),
    ("repro.fleet.replica", "ReplicaServer", "submit",
     "fleet.submit", None),
    ("repro.fleet.replica", "ReplicaServer", "dispatch",
     "fleet.dispatch", None),
    ("repro.fleet.resilience", "ReplicaRecovery", "save",
     "fleet.recovery_save", None),
    ("repro.fleet.resilience", "ReplicaRecovery", "restore",
     "fleet.recovery_restore", None),
    ("repro.faults.checkpoint", "Checkpointer", "save",
     "faults.checkpoint_save", _after_checkpoint),
)


class Probes:
    """Installs a probe table and restores it by identity."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []           # (owner, attribute, original)

    def install(self, table):
        for module_name, class_name, attribute, name, after in table:
            module = importlib.import_module(module_name)
            if class_name is None:
                self._rebind_function(module, attribute, name, after)
            else:
                self._rebind_method(getattr(module, class_name),
                                    attribute, name, after)

    def _rebind_method(self, owner, attribute, name, after):
        raw = vars(owner).get(attribute, _MISSING)
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                self.tracer.wrap(raw.__func__, name, after))
        else:
            # Inherited methods (GraphSAGE.forward) are shadowed on the
            # subclass and un-shadowed on restore.
            wrapped = self.tracer.wrap(getattr(owner, attribute), name,
                                       after)
        self._saved.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def _rebind_function(self, module, attribute, name, after):
        original = getattr(module, attribute)
        wrapped = self.tracer.wrap(original, name, after)
        for loaded_name, loaded in sorted(sys.modules.items()):
            if loaded is None or not (
                    loaded_name == "repro"
                    or loaded_name.startswith("repro.")):
                continue
            for alias, value in list(vars(loaded).items()):
                if value is original:
                    self._saved.append((loaded, alias, original))
                    setattr(loaded, alias, wrapped)

    def restore(self):
        for owner, attribute, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def restored(self):
        """True when every rebound name holds its original object
        again (checked by identity)."""
        return all(vars(owner).get(attribute, _MISSING) is original
                   for owner, attribute, original in self._saved)

    @contextmanager
    def installed(self, table):
        self.install(table)
        try:
            yield self
        finally:
            self.restore()
