"""Metric declarations: what BENCHMARK.json names, and how each
per-layer number is read off a traced repeat.

End-to-end metrics are emitted by every workload (the contract the
driver checks): each workload maps its own headline quantity onto the
shared name, see ``README.md`` for the per-workload meaning.  Per-layer
metrics a workload never touches read 0.
"""

from __future__ import annotations

import statistics

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "LayerView",
           "layer_metrics", "summarize"]

#: (name, why).  Declared here, not next to the implementations, so the
#: runner can name them without importing numpy or ``repro``.
WORKLOADS = (
    ("train-sage",
     "the paper's default pipeline (GraphSAGE, fanout 25/10, presample "
     "cache): time spreads over nn (46 %), sampling (38 %) and kernels "
     "(11 %)"),
    ("train-gat",
     "GAT attention runs gsddmm + edge_softmax + COO gspmm on the "
     "np.add.at reference path: kernels take 73 % and sampling 6 %, "
     "the reverse of train-sage"),
    ("partition-suite",
     "six Table-3 partitioners at k=4 and k=8: METIS refinement does "
     "all the work, nn/kernels/sampling none; it is setup_s everywhere "
     "else"),
    ("serve-sampled",
     "sampled online inference in batches of <=8 seeds, no backward: "
     "sampling, adjacency build and nn forward used the small-batch "
     "way, where per-call overhead shows"),
    ("fleet-steady",
     "per-request cost of the fleet event loop, router, batcher and "
     "tiered-cache lookup with no faults; bypasses sampling and sparse "
     "kernels"),
    ("fleet-chaos",
     "the same fleet under a crash storm with replication, detector, "
     "breakers, hedging and snapshot recovery: the resilience paths "
     "fleet-steady never enters"),
)

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median a metric may worsen by before it counts as a regression.
#: The three timings carry the widest bound the driver accepts: their
#: ten-seed spread is 0.02-0.12 in a quiet hour, but the reference box
#: has slow phases the reference unit only partly corrects (README,
#: "The clock", "Steadiness"), and a bound must stay above both.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("time_to_target_s", "s", "lower", 0.25),
    ("sim_time_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

PARTITION_SPANS = ("partition.hash", "partition.metis_v",
                   "partition.metis_ve", "partition.metis_vet",
                   "partition.stream_v", "partition.stream_b")
KERNEL_SPANS = ("kernels.gspmm", "kernels.gsddmm",
                "kernels.edge_softmax")


def _share(part, whole):
    return part / whole if whole else 0.0


class LayerView:
    """What a per-layer metric may read: span totals of the traced
    set-up plus one traced repeat, the probes' counters, the
    ``PERF.delta()`` of the repeat, and the workload's own counts."""

    #: The benchmark's own span around the timed region.
    root = "bench.repeat"

    def __init__(self, tables, repeat, counts, perf):
        self.tables = tables       # every SpanTable billed to layers
        self.repeat = repeat       # the timed repeat's table alone
        self.counts = counts
        self.perf = perf

    def total(self, *names):
        return sum(t.total.get(n, 0.0) for t in self.tables
                   for n in names)

    def self_time(self, *names):
        return sum(t.self_time.get(n, 0.0) for t in self.tables
                   for n in names)

    def calls(self, *names):
        return sum(t.calls.get(n, 0) for t in self.tables
                   for n in names)

    def count(self, key):
        return self.counts.get(key, 0)

    def perf_count(self, *keys):
        return sum(self.perf.get(k, 0) for k in keys)

    def step_ms(self, q):
        steps = self.repeat.intervals("nn.zero_grad",
                                      "nn.optimizer_step")
        if len(steps) < 2:
            return 1e3 * sum(steps)
        return 1e3 * statistics.quantiles(steps, n=100,
                                          method="inclusive")[q - 1]

    def root_s(self):
        return self.repeat.total.get(self.root, 0.0)


def _m(name, unit, read, better="lower"):
    return (name, unit, better, read)


#: (name, unit, better, reader).  Grouped by ``src/repro`` package.
PER_LAYER = (
    _m("graph.load_dataset_s", "s",
       lambda x: x.total("graph.load_dataset")),
    # -- partition -----------------------------------------------------
    _m("partition.hash_s", "s", lambda x: x.total("partition.hash")),
    _m("partition.metis_v_s", "s",
       lambda x: x.total("partition.metis_v")),
    _m("partition.metis_ve_s", "s",
       lambda x: x.total("partition.metis_ve")),
    _m("partition.metis_vet_s", "s",
       lambda x: x.total("partition.metis_vet")),
    _m("partition.stream_v_s", "s",
       lambda x: x.total("partition.stream_v")),
    _m("partition.stream_b_s", "s",
       lambda x: x.total("partition.stream_b")),
    _m("partition.calls", "count",
       lambda x: x.calls(*PARTITION_SPANS)),
    _m("partition.failed", "count",
       lambda x: x.count("partition.failed")),
    _m("partition.edge_cut_share_metis_vet", "ratio",
       lambda x: x.count("partition.edge_cut_share_metis_vet")),
    _m("partition.balance_ratio_max", "ratio",
       lambda x: x.count("partition.balance_ratio_max")),
    _m("partition.replication_s", "s",
       lambda x: x.total("partition.replication")),
    # -- sampling ------------------------------------------------------
    _m("sampling.sample_s", "s", lambda x: x.total("sampling.sample")),
    _m("sampling.sample_calls", "count",
       lambda x: x.calls("sampling.sample")),
    _m("sampling.sample_self_s", "s",
       lambda x: x.self_time("sampling.sample")),
    _m("sampling.draw_neighbors_s", "s",
       lambda x: x.total("sampling.draw_neighbors")),
    _m("sampling.build_block_s", "s",
       lambda x: x.total("sampling.build_block")),
    _m("sampling.edges_sampled", "count",
       lambda x: x.count("sampling.edges_sampled")),
    _m("sampling.input_vertices", "count",
       lambda x: x.count("sampling.input_vertices")),
    _m("sampling.eval_sample_s", "s",
       lambda x: x.repeat.total_under("sampling.sample",
                                      "core.evaluate")),
    _m("sampling.eval_cache_hit_share", "ratio",
       lambda x: _share(x.perf_count("eval_subgraph_hits"),
                        x.perf_count("eval_subgraph_hits",
                                     "eval_subgraph_misses")),
       better="higher"),
    # -- transfer ------------------------------------------------------
    _m("transfer.batchstats_s", "s",
       lambda x: x.total("transfer.batchstats")),
    _m("transfer.transfer_s", "s",
       lambda x: x.total("transfer.transfer")),
    _m("transfer.transfer_calls", "count",
       lambda x: x.calls("transfer.transfer")),
    _m("transfer.tiered_lookup_s", "s",
       lambda x: x.total("transfer.tiered_lookup")),
    _m("transfer.tiered_lookup_calls", "count",
       lambda x: x.calls("transfer.tiered_lookup")),
    _m("transfer.rows_looked_up", "count",
       lambda x: x.count("transfer.rows_looked_up")),
    _m("transfer.hot_hit_share", "ratio",
       lambda x: _share(x.count("transfer.hot_hits"),
                        x.count("transfer.rows_looked_up")),
       better="higher"),
    _m("transfer.warm_hit_share", "ratio",
       lambda x: _share(x.count("transfer.warm_hits"),
                        x.count("transfer.rows_looked_up")),
       better="higher"),
    _m("transfer.make_cache_s", "s",
       lambda x: x.total("transfer.make_cache")),
    # -- kernels -------------------------------------------------------
    _m("kernels.gspmm_s", "s", lambda x: x.total("kernels.gspmm")),
    _m("kernels.gspmm_calls", "count",
       lambda x: x.calls("kernels.gspmm")),
    _m("kernels.gsddmm_s", "s", lambda x: x.total("kernels.gsddmm")),
    _m("kernels.gsddmm_calls", "count",
       lambda x: x.calls("kernels.gsddmm")),
    _m("kernels.edge_softmax_s", "s",
       lambda x: x.total("kernels.edge_softmax")),
    _m("kernels.edge_softmax_calls", "count",
       lambda x: x.calls("kernels.edge_softmax")),
    _m("kernels.adjacency_build_s", "s",
       lambda x: x.total("kernels.adjacency_build")),
    _m("kernels.flops", "count", lambda x: x.perf_count("kernel_flops")),
    _m("kernels.fallback_share", "ratio",
       lambda x: _share(x.perf_count("kernel_fallbacks"),
                        x.calls(*KERNEL_SPANS))),
    _m("kernels.transpose_hit_share", "ratio",
       lambda x: _share(x.perf_count("kernel_transpose_hits"),
                        x.perf_count("kernel_transpose_hits",
                                     "kernel_transpose_misses")),
       better="higher"),
    # -- nn ------------------------------------------------------------
    _m("nn.forward_s", "s", lambda x: x.total("nn.forward")),
    _m("nn.forward_self_s", "s", lambda x: x.self_time("nn.forward")),
    _m("nn.loss_s", "s", lambda x: x.total("nn.loss")),
    _m("nn.backward_s", "s", lambda x: x.total("nn.backward")),
    _m("nn.backward_self_s", "s",
       lambda x: x.self_time("nn.backward")),
    _m("nn.optimizer_step_s", "s",
       lambda x: x.total("nn.optimizer_step")),
    _m("nn.zero_grad_s", "s", lambda x: x.total("nn.zero_grad")),
    _m("nn.state_dict_s", "s", lambda x: x.total("nn.state_dict")),
    _m("nn.steps", "count", lambda x: x.calls("nn.optimizer_step")),
    _m("nn.nonfinite_steps", "count",
       lambda x: x.count("nn.nonfinite_steps")),
    # -- dist ----------------------------------------------------------
    _m("dist.run_epoch_s", "s", lambda x: x.total("dist.run_epoch")),
    _m("dist.run_epoch_self_s", "s",
       lambda x: x.self_time("dist.run_epoch")),
    _m("dist.epochs", "count", lambda x: x.calls("dist.run_epoch")),
    _m("dist.worker_batches", "count", lambda x: x.calls("nn.loss")),
    _m("dist.step_ms_p50", "ms", lambda x: x.step_ms(50)),
    _m("dist.step_ms_p95", "ms", lambda x: x.step_ms(95)),
    # -- core ----------------------------------------------------------
    _m("core.trainer_run_s", "s",
       lambda x: x.total("core.trainer_run")),
    _m("core.trainer_self_s", "s",
       lambda x: x.self_time("core.trainer_run")),
    _m("core.evaluate_s", "s", lambda x: x.total("core.evaluate")),
    _m("core.evaluate_calls", "count",
       lambda x: x.calls("core.evaluate")),
    _m("core.epochs_to_target", "count",
       lambda x: x.count("core.epochs_to_target")),
    # -- serve ---------------------------------------------------------
    _m("serve.engine_run_s", "s",
       lambda x: x.total("serve.engine_run")),
    _m("serve.loop_self_s", "s",
       lambda x: x.self_time("serve.engine_run")),
    _m("serve.batcher_s", "s", lambda x: x.total("serve.batcher")),
    _m("serve.execute_s", "s", lambda x: x.total("serve.execute")),
    _m("serve.execute_calls", "count",
       lambda x: x.calls("serve.execute")),
    _m("serve.fetch_s", "s", lambda x: x.total("serve.fetch")),
    _m("serve.rowwise_logits_s", "s",
       lambda x: x.total("serve.rowwise_logits")),
    _m("serve.mean_batch_size", "count",
       lambda x: x.count("serve.mean_batch_size")),
    _m("serve.loadgen_s", "s", lambda x: x.total("serve.loadgen")),
    _m("serve.precompute_s", "s",
       lambda x: x.total("serve.precompute")),
    _m("serve.requests_offered", "count",
       lambda x: x.count("serve.requests_offered")),
    _m("serve.requests_failed", "count",
       lambda x: x.count("serve.requests_failed")),
    _m("serve.sim_p50_ms", "ms", lambda x: x.count("serve.sim_p50_ms")),
    _m("serve.sim_queue_depth_max", "count",
       lambda x: x.count("serve.sim_queue_depth_max")),
    # -- fleet ---------------------------------------------------------
    _m("fleet.engine_run_s", "s",
       lambda x: x.total("fleet.engine_run")),
    _m("fleet.loop_self_s", "s",
       lambda x: x.self_time("fleet.engine_run")),
    _m("fleet.loop_self_us_per_request", "us",
       lambda x: _share(1e6 * x.self_time("fleet.engine_run"),
                        x.count("fleet.requests_offered"))),
    _m("fleet.route_s", "s", lambda x: x.total("fleet.route")),
    _m("fleet.route_calls", "count", lambda x: x.calls("fleet.route")),
    _m("fleet.route_hedge_s", "s",
       lambda x: x.total("fleet.route_hedge")),
    _m("fleet.submit_s", "s", lambda x: x.total("fleet.submit")),
    _m("fleet.dispatch_s", "s", lambda x: x.total("fleet.dispatch")),
    _m("fleet.dispatch_calls", "count",
       lambda x: x.calls("fleet.dispatch")),
    _m("fleet.recovery_save_s", "s",
       lambda x: x.total("fleet.recovery_save")),
    _m("fleet.recovery_restore_s", "s",
       lambda x: x.total("fleet.recovery_restore")),
    _m("fleet.shardmap_build_s", "s",
       lambda x: x.total("fleet.shardmap_build")),
    _m("fleet.requests_offered", "count",
       lambda x: x.count("fleet.requests_offered")),
    _m("fleet.requests_failed", "count",
       lambda x: x.count("fleet.requests_failed")),
    _m("fleet.hedges_fired", "count",
       lambda x: x.count("fleet.hedges_fired")),
    _m("fleet.hedges_won_share", "ratio",
       lambda x: x.count("fleet.hedges_won_share"), better="higher"),
    _m("fleet.requeued", "count", lambda x: x.count("fleet.requeued")),
    _m("fleet.spillovers", "count",
       lambda x: x.count("fleet.spillovers")),
    _m("fleet.backup_served", "count",
       lambda x: x.count("fleet.backup_served")),
    _m("fleet.remote_row_share", "ratio",
       lambda x: x.count("fleet.remote_row_share")),
    _m("fleet.sim_availability", "ratio",
       lambda x: x.count("fleet.sim_availability"), better="higher"),
    # -- faults --------------------------------------------------------
    _m("faults.checkpoint_save_s", "s",
       lambda x: x.total("faults.checkpoint_save")),
    _m("faults.checkpoint_bytes", "count",
       lambda x: x.count("faults.checkpoint_bytes")),
    # -- the tracer itself ---------------------------------------------
    _m("trace.spans", "count", lambda x: x.repeat.num_spans),
    _m("trace.overhead_share", "ratio",
       lambda x: x.count("trace.overhead_share")),
    _m("trace.wall_per_cpu", "ratio",
       lambda x: x.count("trace.wall_per_cpu")),
    _m("trace.unattributed_share", "ratio",
       lambda x: _share(x.repeat.self_time.get(x.root, 0.0),
                        x.root_s())),
)


def layer_metrics(view):
    """Every per-layer metric of one traced repeat, by name."""
    return {name: float(read(view))
            for name, _unit, _better, read in PER_LAYER}


def summarize(values):
    """Median, quartiles and n of one metric's per-repeat values."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}
