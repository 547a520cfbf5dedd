"""The online inference engine: a single simulated serving node.

An admission queue + micro-batcher (:mod:`repro.serve.batcher`) feeds
a :class:`~repro.serve.executor.BatchExecutor`, and every
byte/edge/FLOP a batch touches is converted to simulated seconds
through the same :class:`~repro.transfer.hardware.HardwareSpec` cost
model the training engines use.

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
    answer table the offline pass ended with, one ``(1, d)`` head pass
    and argmax per vertex, so each is a pure function of the queried
    vertex (batching-invariant — see
    :meth:`~repro.serve.precompute.LayerwiseEmbeddings.answers`).

The engine is the one serving engine in its 1-replica configuration:
:class:`ServeEngine` builds a :class:`~repro.fleet.engine.FleetEngine`
over a one-part partition (no partitioner runs; the one shard holds
every row, so nothing is billed over the network) and :meth:`run` is
that fleet's run — the same event loop, node, executor and
:class:`~repro.serve.metrics.ServeReport` as any fleet.  It is
deterministic: simulated arrivals come from a seeded
:class:`~repro.serve.requests.LoadGenerator` trace, sampling uses one
seeded rng (the replica's ``default_rng((seed, 0))``, the stream
``default_rng(seed)`` draws), no wall clock is ever read on the
simulated-time path, and every run starts from a cold cache.

Graceful degradation (``deadline``/``fallback``): with a per-request
deadline, requests that are already past it at dispatch are *shed*
(load shedding — answering them late wastes capacity the live requests
need), and in ``sampled`` mode with ``fallback=True`` a batch whose
predicted sampled-path service time would miss the deadline is served
from precomputed layer-wise embeddings instead (exact-but-stale beats
sampled-but-late).  Sheds, degraded answers, and residual deadline
misses are all reported on :class:`~repro.serve.metrics.ServeReport`
(validated, and applied per replica, by the fleet).
"""

from __future__ import annotations

import numpy as np

from ..partition.base import PartitionResult

__all__ = ["ServeEngine"]


class ServeEngine:
    """Single-node online inference over a trained model: a 1-replica
    :class:`~repro.fleet.engine.FleetEngine` (whose parameters are a
    superset of these).

    Parameters
    ----------
    dataset:
        The :class:`~repro.graph.datasets.Dataset` being served.
    model:
        A trained block-stack model (``GCN``/``GraphSAGE``; ``sampled``
        mode also accepts ``GAT``).
    mode:
        One of :data:`~repro.serve.executor.SERVE_MODES`.
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
        Optional per-request deadline in simulated seconds, a positive
        number (``nan`` or a string is a :class:`ServingError`).  At
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
        from ..fleet.engine import FleetEngine
        whole = PartitionResult(
            np.zeros(dataset.num_vertices, dtype=np.int64), 1, "single")
        #: The 1-replica :class:`~repro.fleet.engine.FleetEngine` this
        #: engine is; ``fleet.replicas[0]`` is the node of the last run.
        self.fleet = FleetEngine(
            dataset, model, partition=whole, mode=mode, policy=policy,
            max_queue=max_queue, fanout=fanout,
            cache_policy=cache_policy, cache_ratio=cache_ratio,
            warm_ratio=warm_ratio, cache_scores=cache_scores, spec=spec,
            seed=seed, embeddings=embeddings, deadline=deadline,
            fallback=fallback)

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
        the oldest deadline, or draining).  Every run starts from a
        cold cache, so two runs of one engine report the same run.
        """
        return self.fleet.run(requests)
