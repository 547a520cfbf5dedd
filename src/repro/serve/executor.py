"""The batch-execution layer: one micro-batch in, answers + billed
seconds out.

:class:`BatchExecutor` is the part of a serving node that actually
*serves* — sampling, feature/embedding fetches through an optional
cache, the model forward.  Every node is a fleet replica
(:class:`~repro.fleet.replica.ReplicaServer`; a
:class:`~repro.serve.engine.ServeEngine` is a 1-replica fleet), so
every executor serves one graph shard: a row the local cache hierarchy
cannot resolve is fetched from the local backing store when the shard
holds it and over the cluster network when another shard does.  A
shard that holds every row pays exactly what the cache's own
:meth:`~repro.transfer.tiered.TieredCache.bill` charges.

The executor is deliberately ignorant of queueing, clocks, and
routing: it maps a vertex batch to ``(predictions, bp, dt, nn)``
simulated stage seconds, and accumulates cache/tier/locality counters.
Answers in ``precomputed`` mode are gathered by
:meth:`~repro.serve.precompute.LayerwiseEmbeddings.answers` from the
answer table the offline pass ended with, so they are a pure function
of the queried vertex — independent of how requests were batched,
spilled, or failed over — and the host runs no model and takes no
argmax at serve time.  The *simulated* node still does: every batch is
billed the embedding rows it fetches through the cache and the head's
FLOPs.  A bill reads only the lookup's tier counts, and splits rows by
shard only when some are cold (only a cold row can be remote).
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
    """Executes micro-batches for the node serving one graph shard.

    Parameters
    ----------
    shards:
        The fleet's :class:`~repro.fleet.shards.ShardMap`.
    replica_id:
        The shard this node serves, in ``0..num_shards-1``.
    dataset, model, mode, fanout, cache_policy, cache_ratio,
    warm_ratio, cache_scores, spec, embeddings:
        The serving knobs :class:`~repro.serve.engine.ServeEngine`
        documents.
    need_embeddings:
        Forces the offline table build in ``sampled`` mode (the
        degraded-fallback path needs it).

    Counters: ``local_rows`` / ``remote_rows`` (rows resolved on-node
    vs. fetched from other shards over the network), ``remote_seconds``
    (simulated network time of those fetches), ``tier_seconds`` (the
    per-tier split of fetch time over a disk-backed hierarchy), and
    the most recent fetch's ``last_remote_rows`` /
    ``last_remote_seconds`` (the per-batch locality attribution a node
    reads after each batch).
    """

    def __init__(self, shards, replica_id, dataset, model, mode="sampled",
                 fanout=(10, 10), cache_policy="lru", cache_ratio=0.0,
                 warm_ratio=0.0, cache_scores=None, spec=None,
                 embeddings=None, need_embeddings=False):
        if mode not in SERVE_MODES:
            raise ServingError(
                f"unknown serve mode {mode!r}; known: {SERVE_MODES}")
        self.shards = shards
        self.replica_id = int(replica_id)
        # Which rows this shard must fetch over the network, for every
        # vertex at once: a fetch then splits its cold rows with one
        # index (raises FleetError for a shard id out of range).
        self._remote = shards.remote_mask(
            self.replica_id, np.arange(dataset.num_vertices))
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

        self.sampler = NeighborSampler(fanout) if mode == "sampled" \
            else None
        self.embeddings = None
        self.precompute_seconds = 0.0
        if mode != "sampled" or need_embeddings:
            self.embeddings = embeddings if embeddings is not None else \
                LayerwiseEmbeddings(model, dataset.graph,
                                    dataset.features)
            table = self.embeddings.table
            self._row_bytes = table.shape[1] * table.itemsize
            # Offline pass cost, reported separately from latency: one
            # full feature transfer plus the per-layer full-graph
            # forward.
            table_bytes = dataset.feature_bytes()
            self.precompute_seconds = (
                self.spec.gather_time(table_bytes)
                + self.spec.pcie_time(table_bytes)
                + self.spec.compute_time(self.embeddings.build_flops))

        self.cache = self._build_cache()
        # What a fetch looks rows up in: the cache, or a pass-through
        # that resolves nothing when caching is off.
        self._store = self.cache if self.cache is not None \
            else TieredCache(0, 0, 0, backing="host")
        self.tier_seconds = {"hot": 0.0, "warm": 0.0, "cold": 0.0}
        self.local_rows = 0
        self.remote_rows = 0
        self.remote_seconds = 0.0
        self.last_remote_rows = 0
        self.last_remote_seconds = 0.0

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

    # ------------------------------------------------------------------
    # Transfer billing
    # ------------------------------------------------------------------
    def fetch_seconds(self, row_ids, row_bytes):
        """Simulated time to materialize ``row_ids`` on the GPU through
        the cache: hot rows are resident, every other tier is billed
        its own path.  No cache means every row is a cold read."""
        store = self._store
        seconds, warm, cold = self._bill(store, store.lookup(row_ids),
                                         row_bytes)
        if store.backing == "disk":
            # The per-tier split is the hierarchy's report; a
            # host-backed cache reports one hit rate, as the paper does.
            self.tier_seconds["warm"] += warm
            self.tier_seconds["cold"] += cold
        return seconds

    def _bill(self, cache, lookup, row_bytes):
        """``(total, warm, cold)`` seconds of one lookup: the cache's
        tier bill with the cold rows split by shard — local cold rows
        take the backing-store path, remote ones the network path (one
        message per distinct owning shard).  PCIe is shared by bytes
        over everything moved, ordered so a fetch with no remote row
        reproduces :meth:`TieredCache.bill` bit for bit."""
        spec = self.spec
        vertices = lookup.vertices
        num_remote = 0
        if lookup.num_cold:     # only a cold row can be remote
            remote = vertices[self._remote[vertices] & lookup.cold_mask]
            num_remote = remote.size
        num_local_cold = lookup.num_cold - num_remote
        self.last_remote_rows = num_remote
        self.remote_rows += num_remote
        self.local_rows += lookup.num_hot + lookup.num_warm \
            + num_local_cold

        warm_bytes = lookup.num_warm * row_bytes
        lcold_bytes = num_local_cold * row_bytes
        rcold_bytes = num_remote * row_bytes
        moved = warm_bytes + lcold_bytes + rcold_bytes
        pcie = spec.pcie_time(moved) if moved else 0.0
        warm_share = pcie * warm_bytes / moved if moved else 0.0
        nonwarm_share = pcie - warm_share if moved else 0.0
        if rcold_bytes and lcold_bytes:
            remote_share = (nonwarm_share * rcold_bytes
                            / (lcold_bytes + rcold_bytes))
        else:   # one side takes the whole share, not a rounded ratio
            remote_share = nonwarm_share if rcold_bytes else 0.0
        lcold_share = nonwarm_share - remote_share

        warm_seconds = (spec.host_cache_time(warm_bytes)
                        + warm_share) if warm_bytes else 0.0
        disk = spec.disk_time(lcold_bytes) \
            if cache.backing == "disk" else 0.0
        lcold_seconds = (disk + spec.gather_time(lcold_bytes)
                         + lcold_share) if lcold_bytes else 0.0
        remote_seconds = 0.0
        if rcold_bytes:
            messages = len(sorted_unique(self.shards.assignment[remote]))
            remote_seconds = (
                spec.gather_time(rcold_bytes)
                + spec.network_time(rcold_bytes, messages=messages)
                + remote_share)
        self.remote_seconds += remote_seconds
        self.last_remote_seconds = remote_seconds
        return (warm_seconds + lcold_seconds + remote_seconds,
                warm_seconds, lcold_seconds + remote_seconds)

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

        # precomputed: the answers are a gather from the answer table
        # (batching-invariant — see LayerwiseEmbeddings.answers); the
        # simulated node fetches the batch's embedding rows through its
        # cache and runs the head.
        predictions = self.embeddings.answers(vertices)
        dt = self.fetch_seconds(
            sorted_unique(np.array(vertices, dtype=np.int64)),
            self._row_bytes)
        nn = self.spec.compute_time(
            self.embeddings.head_flops(len(vertices)))
        return predictions, 0.0, dt, nn

    def execute_degraded(self, vertices):
        """Degraded-mode batch: answer from the precomputed table
        instead of sampling (no feature cache involved — the fallback
        table rows are fetched directly)."""
        predictions = self.embeddings.answers(vertices)
        num_bytes = len(sorted_unique(
            np.array(vertices, dtype=np.int64))) * self._row_bytes
        dt = (self.spec.gather_time(num_bytes)
              + self.spec.pcie_time(num_bytes)) if num_bytes else 0.0
        nn = self.spec.compute_time(
            self.embeddings.head_flops(len(vertices)))
        return predictions, 0.0, dt, nn
