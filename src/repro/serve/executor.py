"""The batch-execution layer: one micro-batch in, answers + billed
seconds out.

:class:`BatchExecutor` is the piece of the old monolithic
``ServeEngine`` that actually *serves* — sampling, feature/embedding
fetches through an optional cache, the model forward — factored out so
two hosts can drive it:

* :class:`~repro.serve.engine.ServeEngine` puts one executor behind
  one :class:`~repro.serve.loop.ServeNode`;
* :class:`~repro.fleet.replica.ReplicaServer` is a node *per shard*,
  with :class:`~repro.fleet.replica.ShardExecutor` overriding
  the transfer billing to split fetches into local rows and
  remote-shard rows paid over the cluster network.

The executor is deliberately ignorant of queueing, clocks, and
routing: it maps a vertex batch to ``(predictions, bp, dt, nn)``
simulated stage seconds, and accumulates cache/tier counters.  Answers
in ``precomputed`` mode are gathered by
:meth:`~repro.serve.precompute.LayerwiseEmbeddings.rowwise_logits` from
the logit table the offline pass ended with, so they are a pure
function of the queried vertex — independent of how requests were
batched, spilled, or failed over — and the host runs no model at serve
time.  The *simulated* node still does: every batch is billed the
embedding rows it fetches through the cache and the head's FLOPs.
"""

from __future__ import annotations

import numpy as np

from ..errors import ServingError, TransferError
from ..nn import model_widths
from ..perf import sorted_unique
from ..sampling import NeighborSampler
from ..transfer.hardware import DEFAULT_SPEC, estimate_flops
from ..transfer.tiered import TieredCache, backing_for, make_tiered_cache
from .precompute import LayerwiseEmbeddings

__all__ = ["BatchExecutor", "SERVE_MODES"]

SERVE_MODES = ("sampled", "full", "precomputed")


class BatchExecutor:
    """Executes micro-batches for one serving node.

    Parameters mirror the serving knobs of
    :class:`~repro.serve.engine.ServeEngine` (which documents them);
    ``need_embeddings`` additionally forces the offline table build in
    ``sampled`` mode (the degraded-fallback path needs it).
    """

    #: Remote-shard rows / network seconds of the most recent fetch.  A
    #: single server has no other shards; the fleet's ``ShardExecutor``
    #: sets these per fetch.
    last_remote_rows = 0
    last_remote_seconds = 0.0

    def __init__(self, dataset, model, mode="sampled", fanout=(10, 10),
                 cache_policy="lru", cache_ratio=0.0, warm_ratio=0.0,
                 cache_scores=None, spec=None, embeddings=None,
                 need_embeddings=False):
        if mode not in SERVE_MODES:
            raise ServingError(
                f"unknown serve mode {mode!r}; known: {SERVE_MODES}")
        self.dataset = dataset
        self.model = model
        self.mode = mode
        self.spec = spec or DEFAULT_SPEC
        self.cache_ratio = float(cache_ratio)
        self.warm_ratio = float(warm_ratio)
        if self.warm_ratio < 0:
            raise ServingError(
                f"warm_ratio must be non-negative, got {warm_ratio}")
        self.cache_policy = cache_policy
        self.cache_scores = cache_scores
        self.hidden_dim = model_widths(model)[0]
        self._feat_bytes = (dataset.feature_dim
                            * dataset.features.itemsize)

        self.sampler = None
        self.embeddings = None
        self.precompute_seconds = 0.0
        if mode == "sampled":
            self.sampler = NeighborSampler(fanout)
            if need_embeddings:
                self.embeddings = embeddings if embeddings is not None \
                    else LayerwiseEmbeddings(model, dataset.graph,
                                             dataset.features)
                self.precompute_seconds = self._precompute_cost()
        else:
            self.embeddings = embeddings if embeddings is not None else \
                LayerwiseEmbeddings(model, dataset.graph,
                                    dataset.features)
            # Offline pass cost, reported separately from latency: one
            # full feature transfer plus the per-layer full-graph
            # forward.
            self.precompute_seconds = self._precompute_cost()

        self.cache = self._build_cache()
        self.tier_seconds = {"hot": 0.0, "warm": 0.0, "cold": 0.0}

    def _precompute_cost(self):
        """Simulated cost of the one-off offline embedding pass."""
        table_bytes = self.dataset.feature_bytes()
        return (self.spec.gather_time(table_bytes)
                + self.spec.pcie_time(table_bytes)
                + self.spec.compute_time(self.embeddings.build_flops))

    def _build_cache(self):
        """The node's :class:`TieredCache` over feature rows
        (sampled/full) or embedding-table rows (precomputed; row ids
        are vertex ids, so graph-degree placement stays meaningful) —
        the same cache the training workers use."""
        if self.cache_ratio <= 0 and self.warm_ratio <= 0:
            return None
        try:
            return make_tiered_cache(
                self.cache_policy, self.dataset.graph,
                self.cache_ratio, self.warm_ratio,
                scores=self.cache_scores,
                backing=backing_for(self.cache_policy, self.warm_ratio))
        except TransferError as exc:
            raise ServingError(str(exc)) from exc

    def reset_counters(self):
        """Zero the per-run tier-seconds accumulator."""
        self.tier_seconds = {"hot": 0.0, "warm": 0.0, "cold": 0.0}

    # ------------------------------------------------------------------
    # Transfer billing
    # ------------------------------------------------------------------
    def fetch_seconds(self, row_ids, row_bytes):
        """Simulated time to materialize ``row_ids`` on the GPU through
        the cache: hot rows are resident, every other tier is billed
        its own path.  No cache means every row is a cold read from
        host RAM."""
        cache = self.cache if self.cache is not None \
            else TieredCache(0, 0, 0, backing="host")
        seconds, warm, cold = self._bill(cache, cache.lookup(row_ids),
                                         row_bytes)
        if cache.backing == "disk":
            # The per-tier split is the hierarchy's report; a
            # host-backed cache reports one hit rate, as the paper does.
            self.tier_seconds["warm"] += warm
            self.tier_seconds["cold"] += cold
        return seconds

    def _bill(self, cache, lookup, row_bytes):
        """``(total, warm, cold)`` seconds of one lookup.  Overridden
        by the fleet's :class:`ShardExecutor` to price remote-shard
        rows over the network instead of the local backing store."""
        bill = cache.bill(lookup, row_bytes, self.spec)
        return bill.total_seconds, bill.warm_seconds, bill.cold_seconds

    # ------------------------------------------------------------------
    # Per-batch execution
    # ------------------------------------------------------------------
    def execute(self, vertices, rng):
        """Run one micro-batch; returns ``(predictions, bp, dt, nn)``
        — per-request predictions plus the simulated seconds of each
        serving stage (batch preparation / data transfer / NN)."""
        if self.mode == "sampled":
            subgraph = self.sampler.sample(self.dataset.graph, vertices,
                                           rng)
            logits = self.model.forward(
                subgraph,
                self.dataset.features[subgraph.input_nodes]).data
            rows = subgraph.seeds.searchsorted(vertices)
            predictions = logits.argmax(axis=-1)[rows]
            bp = self.spec.sample_time(subgraph.total_edges)
            dt = self.fetch_seconds(subgraph.input_nodes,
                                    self._feat_bytes)
            nn = self.spec.compute_time(estimate_flops(
                subgraph, self.dataset.feature_dim, self.hidden_dim,
                self.dataset.num_classes, backward_factor=1.0))
            return predictions, bp, dt, nn

        if self.mode == "full":
            logits, stats = self.embeddings.ondemand_logits(vertices)
            predictions = logits.argmax(axis=-1)
            bp = self.spec.sample_time(stats.edges)
            dt = self.fetch_seconds(stats.input_ids, self._feat_bytes)
            nn = self.spec.compute_time(stats.flops)
            return predictions, bp, dt, nn

        # precomputed: the answers are a gather from the logit table
        # (batching-invariant — see LayerwiseEmbeddings.rowwise_logits);
        # the simulated node fetches the batch's embedding rows through
        # its cache and runs the head.
        logits = self.embeddings.rowwise_logits(vertices)
        predictions = logits.argmax(axis=-1)
        row_bytes = (self.embeddings.table.shape[1]
                     * self.embeddings.table.itemsize)
        dt = self.fetch_seconds(
            sorted_unique(np.array(vertices, dtype=np.int64)), row_bytes)
        nn = self.spec.compute_time(
            self.embeddings.head_flops(len(vertices)))
        return predictions, 0.0, dt, nn

    def execute_degraded(self, vertices):
        """Degraded-mode batch: answer from the precomputed table
        instead of sampling (no feature cache involved — the fallback
        table rows are fetched directly)."""
        logits = self.embeddings.rowwise_logits(vertices)
        predictions = logits.argmax(axis=-1)
        row_bytes = (self.embeddings.table.shape[1]
                     * self.embeddings.table.itemsize)
        num_bytes = len(sorted_unique(
            np.array(vertices, dtype=np.int64))) * row_bytes
        dt = (self.spec.gather_time(num_bytes)
              + self.spec.pcie_time(num_bytes)) if num_bytes else 0.0
        nn = self.spec.compute_time(
            self.embeddings.head_flops(len(vertices)))
        return predictions, 0.0, dt, nn
