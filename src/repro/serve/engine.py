"""The online inference engine: a single simulated serving node.

Ties the layer together: an admission queue + micro-batcher
(:mod:`repro.serve.batcher`) feeds a :class:`~repro.serve.executor.
BatchExecutor`, and every byte/edge/FLOP a batch touches is converted
to simulated seconds through the same
:class:`~repro.transfer.hardware.HardwareSpec` cost model the training
engines use.  The executor is a separate layer on purpose: the fleet
tier (:mod:`repro.fleet`) runs one executor per graph shard behind a
partition-aware router, while this engine is the single-server
baseline the fleet must bit-match.

Execution modes
---------------
``sampled``
    On-demand sampled inference: the batch's seeds go through the
    training stack's :class:`~repro.sampling.NeighborSampler` and
    ``build_block`` hot path, features are fetched through an optional
    GPU feature cache, and the model runs forward.  Approximate (it
    samples), cheap, the BGL/Serafini-style serving answer.
``full``
    On-demand *full-fanout* inference: the query's entire L-hop
    neighborhood, computed exactly via
    :class:`~repro.serve.precompute.LayerwiseEmbeddings`'s reference
    path.  Exact but explodes with depth — the mode that motivates
    precomputation.
``precomputed``
    Layer-wise precomputed embeddings: the simulated server looks the
    batch's embedding rows up (through an LRU *historical-embedding
    cache*) and runs the MLP head; the host reads the answers from the
    logit table the offline pass ended with, one ``(1, d)`` head pass
    per vertex, so each is a pure function of the queried vertex
    (batching-invariant — see
    :meth:`~repro.serve.precompute.LayerwiseEmbeddings.rowwise_logits`).

The engine has no loop of its own: :meth:`ServeEngine.run` is
:class:`~repro.serve.loop.EventLoop` over one router-less
:class:`~repro.serve.loop.ServeNode` with no handlers registered — the
single-node configuration of the loop the fleet runs on.  It is
deterministic: simulated arrivals come from a seeded
:class:`~repro.serve.requests.LoadGenerator` trace, sampling uses one
seeded rng, and no wall clock is ever read on the simulated-time path.

Graceful degradation (``deadline``/``fallback``): with a per-request
deadline, requests that are already past it at dispatch are *shed*
(load shedding — answering them late wastes capacity the live requests
need), and in ``sampled`` mode with ``fallback=True`` a batch whose
predicted sampled-path service time would miss the deadline is served
from precomputed layer-wise embeddings instead (exact-but-stale beats
sampled-but-late).  Sheds, degraded answers, and residual deadline
misses are all reported on :class:`~repro.serve.metrics.ServeReport`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ServingError
from ..nn import no_grad
from ..transfer.hardware import DEFAULT_SPEC
from .batcher import BatchPolicy
from .executor import SERVE_MODES, BatchExecutor
from .loop import (EventLoop, ServeNode, cache_hit_rates, check_trace,
                   run_totals)
from .metrics import ServeReport, summary_fields

__all__ = ["ServeEngine", "SERVE_MODES"]


class ServeEngine:
    """Single-node online inference over a trained model.

    Parameters
    ----------
    dataset:
        The :class:`~repro.graph.datasets.Dataset` being served.
    model:
        A trained block-stack model (``GCN``/``GraphSAGE``; ``sampled``
        mode also accepts ``GAT``).
    mode:
        One of :data:`SERVE_MODES`.
    policy, max_queue:
        Micro-batching policy and admission bound (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    fanout:
        Per-layer fanout for ``sampled`` mode.
    cache_policy, cache_ratio:
        Admission policy ("lru"/"lfu"/"degree"/"presample"/"static")
        and GPU-hot budget of the node's
        :class:`~repro.transfer.tiered.TieredCache` — over *feature*
        rows in ``sampled``/``full`` mode, *embedding-table* rows in
        ``precomputed``.  ``cache_ratio=0`` (with no warm tier)
        disables caching: every row is fetched from host RAM.
    warm_ratio, cache_scores:
        ``warm_ratio`` adds a pinned-host-warm tier.  With it (or with
        ``cache_policy="lfu"``) the un-cached rows are disk-cold and
        the report carries per-tier hit rates and the per-tier split
        of ``dt_seconds``; without, they are host-resident (see
        :func:`~repro.transfer.tiered.backing_for`).
        "presample"/"static" need ``cache_scores``, e.g. measured
        request frequencies from a trace prefix.
    spec:
        Hardware cost model; defaults to the paper's simulated node.
    seed:
        Seeds the sampling rng — the only randomness in the engine.
    embeddings:
        Optional prebuilt :class:`LayerwiseEmbeddings` to share across
        engines (skips the offline pass).
    deadline:
        Optional per-request deadline in simulated seconds.  At
        dispatch, requests already past their deadline are *shed*
        (dropped without an answer — serving a guaranteed-stale reply
        wastes capacity the queued requests need); completed requests
        that still finish late are counted as deadline misses.
    fallback:
        ``sampled`` mode only: when True, a batch whose sampled-path
        service time is predicted to miss the deadline is served from
        precomputed layer-wise embeddings instead (graceful
        degradation: exact-but-stale beats sampled-but-late).  Builds a
        :class:`LayerwiseEmbeddings` table unless ``embeddings`` is
        supplied; the offline cost lands in ``precompute_seconds``.
    """

    def __init__(self, dataset, model, mode="sampled", policy=None,
                 max_queue=None, fanout=(10, 10), cache_policy="lru",
                 cache_ratio=0.0, warm_ratio=0.0, cache_scores=None,
                 spec=None, seed=0, embeddings=None, deadline=None,
                 fallback=False):
        if deadline is not None and deadline <= 0:
            raise ServingError(
                f"deadline must be positive, got {deadline}")
        if fallback and mode != "sampled":
            raise ServingError(
                "fallback degradation only applies to 'sampled' mode "
                f"(mode {mode!r} already serves from the table)")
        if fallback and deadline is None:
            raise ServingError(
                "fallback degradation needs a deadline to degrade "
                "against")
        self.dataset = dataset
        self.model = model
        self.mode = mode
        self.policy = policy or BatchPolicy()
        self.max_queue = max_queue
        self.spec = spec or DEFAULT_SPEC
        self.seed = int(seed)
        self.deadline = None if deadline is None else float(deadline)
        self.fallback = bool(fallback)
        self.executor = BatchExecutor(
            dataset, model, mode=mode, fanout=fanout,
            cache_policy=cache_policy, cache_ratio=cache_ratio,
            warm_ratio=warm_ratio, cache_scores=cache_scores,
            spec=self.spec, embeddings=embeddings,
            need_embeddings=self.fallback)

    @property
    def cache(self):
        """The executor's feature / embedding cache (``None`` when
        caching is off)."""
        return self.executor.cache

    def run(self, requests):
        """Serve a request trace; returns a
        :class:`~repro.serve.metrics.ServeReport`.

        ``requests`` must be sorted by arrival time (what
        :meth:`LoadGenerator.generate` produces) and query vertices of
        the served graph (:class:`ServingError` names the first request
        that does not, before anything is served).  A single-server
        queueing simulation: arrivals at time ``t`` are admitted (in
        order) before any dispatch decision at ``t``; a batch launches
        when the server is free and the batcher is ready (full, past
        the oldest deadline, or draining).
        """
        requests = list(requests)
        check_trace(requests, self.dataset.num_vertices)
        self.executor.reset_counters()
        node = ServeNode(self.executor, self.policy, self.max_queue,
                         rng=np.random.default_rng(self.seed),
                         deadline=self.deadline, fallback=self.fallback)
        loop = EventLoop([node], requests)
        with no_grad():
            responses = loop.run()
        return self._report(node, responses, len(requests))

    def _report(self, node, responses, num_requests):
        executor = self.executor
        hit_rate, warm_rate, tiered = cache_hit_rates([executor.cache])
        return ServeReport(
            mode=self.mode,
            policy=self.policy.describe(),
            cache_ratio=executor.cache_ratio,
            num_requests=num_requests,
            rejected=node.rejected,
            **run_totals(responses, self.dataset.labels),
            **summary_fields("latency", node.latencies, 0.0),
            num_batches=node.num_batches,
            mean_batch_size=node.mean_batch_size,
            batch_occupancy=(node.mean_batch_size
                             / self.policy.max_batch_size),
            **summary_fields("queue_depth", node.queue_depths, 0.0,
                             ("mean", "max")),
            cache_hit_rate=hit_rate,
            bp_seconds=node.bp_seconds,
            dt_seconds=node.dt_seconds,
            nn_seconds=node.nn_seconds,
            precompute_seconds=executor.precompute_seconds,
            deadline=self.deadline or 0.0,
            shed=node.shed,
            degraded=node.degraded,
            deadline_misses=(sum(
                1 for r in responses if r.latency > self.deadline)
                if self.deadline is not None else 0),
            cache_policy=executor.cache_policy,
            warm_ratio=executor.warm_ratio,
            hot_hit_rate=hit_rate if tiered else 0.0,
            warm_hit_rate=warm_rate,
            tier_seconds=dict(executor.tier_seconds) if tiered else {},
            responses=responses,
        )
