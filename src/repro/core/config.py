"""Training configuration and component factories.

:class:`TrainingConfig` is the single declarative knob panel for the
whole evaluation: it names the partitioner, sampler, transfer method,
cache policy, pipeline mode, and optimization hyper-parameters, mirroring
the paper's experimental setup (§4: GCN/GraphSAGE, hidden dim 128,
default fanout (25, 10), 4 machines).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..batching.schedule import BatchSizeSchedule, FixedBatchSize
from ..batching.selection import (BatchSelector, ClusterBatchSelector,
                                  RandomBatchSelector)
from ..dist import FullGraph
from ..errors import TrainingError, TransferError
from ..partition import (HashPartitioner, MetisPartitioner,
                         StreamBPartitioner, StreamVPartitioner)
from ..sampling import (HybridSampler, LayerWiseSampler, NeighborSampler,
                        RateSampler, SubgraphSampler)
from ..transfer import (DEFAULT_SPEC, HardwareSpec, TransferMethod,
                        backing_for, make_tiered_cache, make_transfer)

__all__ = ["TrainingConfig", "make_partitioner", "make_sampler",
           "make_cache", "config_for_platform", "PARTITIONER_NAMES"]

PARTITIONER_NAMES = ("hash", "hash-edge", "metis-v", "metis-ve",
                     "metis-vet", "stream-v", "stream-b")


def make_partitioner(name, **kwargs):
    """Partitioner factory by the names used throughout the paper."""
    key = name.lower()
    if key == "hash":
        return HashPartitioner(by="vertex", **kwargs)
    if key == "hash-edge":
        return HashPartitioner(by="edge", **kwargs)
    if key.startswith("metis-"):
        return MetisPartitioner(variant=key.split("-", 1)[1], **kwargs)
    if key == "stream-v":
        return StreamVPartitioner(**kwargs)
    if key == "stream-b":
        return StreamBPartitioner(**kwargs)
    raise TrainingError(
        f"unknown partitioner {name!r}; known: {PARTITIONER_NAMES}")


def make_sampler(name, fanout=(25, 10), rate=0.1, num_layers=2, **kwargs):
    """Sampler factory: fanout / rate / hybrid / layerwise / subgraph,
    or "full-graph" — the :class:`~repro.dist.FullGraph` batch policy
    (no sampling; every vertex, one update per epoch)."""
    key = name.lower()
    if key == "fanout":
        return NeighborSampler(fanout)
    if key == "rate":
        return RateSampler(rate, num_layers=num_layers, **kwargs)
    if key == "hybrid":
        return HybridSampler(fanout=fanout, rate=rate, **kwargs)
    if key == "layerwise":
        return LayerWiseSampler(num_layers=num_layers, **kwargs)
    if key == "subgraph":
        return SubgraphSampler(num_layers=num_layers, **kwargs)
    if key == "full-graph":
        return FullGraph()
    raise TrainingError(f"unknown sampler {name!r}")


def make_cache(policy, dataset, ratio, sampler=None, seeds=None, rng=None,
               warm_ratio=0.0):
    """Feature cache factory for one worker.

    ``policy`` is ``None`` (no cache), "degree", "presample", "random",
    "lru", or "lfu"; pre-sampling needs the worker's sampler and seed
    set.  The worker gets a :class:`~repro.transfer.tiered.TieredCache`
    with ``ratio`` of the vertices GPU-hot and ``warm_ratio``
    pinned-host-warm.  With ``warm_ratio == 0`` the rest of the
    features are host-resident — the paper's §7.3.3 single-tier GPU
    cache; with a warm tier (or "lfu") they are disk-cold
    (:func:`~repro.transfer.tiered.backing_for`), and the transfer
    methods report the bill tier by tier.
    """
    if policy is None or (ratio <= 0 and warm_ratio <= 0):
        return None
    key = policy.lower()
    scores = None
    if key == "random":
        if warm_ratio > 0:
            raise TrainingError(
                "random is a single-tier ablation policy; warm tiers "
                "support lru, lfu, degree, and presample")
        # The ablation baseline that separates "any cache helps" from
        # "this policy helps": a uniform random resident set, placed
        # statically by 0/1 scores.
        rng = rng if rng is not None else np.random.default_rng(0)
        scores = np.zeros(dataset.num_vertices)
        scores[rng.choice(dataset.num_vertices,
                          size=int(round(dataset.num_vertices * ratio)),
                          replace=False)] = 1.0
        key = "static"
    try:
        return make_tiered_cache(key, dataset.graph, ratio, warm_ratio,
                                 sampler=sampler, seeds=seeds, rng=rng,
                                 scores=scores,
                                 backing=backing_for(key, warm_ratio))
    except TransferError as exc:
        raise TrainingError(str(exc)) from exc


@dataclass
class TrainingConfig:
    """Declarative description of one training run.

    Component fields accept either a name (factory-built) or an already
    constructed object, so experiments can inject custom variants.
    """

    # Model (paper §4: 2-layer GCN/GraphSAGE, hidden 128).
    model: str = "gcn"
    hidden_dim: int = 128
    num_layers: int = 2
    dropout: float = 0.1
    learning_rate: float = 0.003
    # Batch preparation.
    batch_size: object = 512            # int or BatchSizeSchedule
    # Which training vertices form each batch (§6.3.2): "random",
    # "cluster" or a BatchSelector.
    batch_selection: object = "random"
    sampler: object = "fanout"          # name, Sampler or FullGraph
    fanout: tuple = (25, 10)
    sample_rate: float = 0.1
    # Cluster + data management.
    num_workers: int = 4
    partitioner: object = "metis-ve"    # name or Partitioner
    transfer: object = "zero-copy"      # name or TransferMethod
    cache_policy: object = None         # None / "degree" / "presample" / ...
    cache_ratio: float = 0.0
    # Warm-tier (pinned host) budget as a fraction of |V|.  Non-zero
    # gives each worker's cache `cache_ratio` GPU-hot and
    # `cache_warm_ratio` host-warm over disk-cold features (the
    # BGL/out-of-core scenario) instead of host-resident ones.
    cache_warm_ratio: float = 0.0
    # SALIENT++-style hot-remote-vertex replication budget per machine
    # (fraction of |V|; 0 disables).
    replication_budget: float = 0.0
    pipeline: str = "bp+dt"
    # What the engine does with a crashed worker's training vertices
    # when a fault plan kills a machine: "redistribute" to survivors or
    # "drop" for the rest of the run (see repro.faults).
    crash_policy: str = "redistribute"
    spec: HardwareSpec = field(default=DEFAULT_SPEC)
    # Loop control.
    epochs: int = 30
    eval_every: int = 1
    early_stop_patience: int = 0        # 0 = disabled
    seed: int = 0

    # ------------------------------------------------------------------
    # Materialization helpers
    # ------------------------------------------------------------------
    def build_schedule(self):
        """The batch-size schedule (wrapping plain ints)."""
        if isinstance(self.batch_size, BatchSizeSchedule):
            return self.batch_size
        return FixedBatchSize(int(self.batch_size))

    def build_selector(self, graph):
        """The batch selector (built from a name if needed); "cluster"
        clusters ``graph`` with this config's seed."""
        if isinstance(self.batch_selection, BatchSelector):
            return self.batch_selection
        if self.batch_selection == "random":
            return RandomBatchSelector()
        if self.batch_selection == "cluster":
            return ClusterBatchSelector(graph, seed=self.seed)
        raise TrainingError(
            f"unknown batch_selection {self.batch_selection!r}; known: "
            f"'random', 'cluster' or a BatchSelector")

    def build_sampler(self):
        """The sampler or batch policy (built from a name if needed)."""
        if not isinstance(self.sampler, str):
            return self.sampler
        return make_sampler(self.sampler, fanout=self.fanout,
                            rate=self.sample_rate,
                            num_layers=self.num_layers)

    def build_partitioner(self):
        """The partitioner instance (built from a name if needed)."""
        if isinstance(self.partitioner, str):
            return make_partitioner(self.partitioner)
        return self.partitioner

    def build_transfer(self):
        """The transfer method (built from a name if needed)."""
        if isinstance(self.transfer, TransferMethod):
            return self.transfer
        return make_transfer(self.transfer)

    def with_overrides(self, **kwargs):
        """A copy of this config with fields replaced."""
        return replace(self, **kwargs)

    def rng(self, salt=0):
        """A generator derived deterministically from the seed."""
        return np.random.default_rng(self.seed * 1_000_003 + salt)


def config_for_platform(platform, **overrides):
    """A :class:`TrainingConfig` matching a deployment
    :class:`~repro.transfer.platform.Platform`.

    Sets the worker count, hardware spec, and the platform's typical
    transfer method; disables GPU caching on platforms without a GPU.
    Any field can still be overridden explicitly.
    """
    kwargs = dict(num_workers=platform.num_workers, spec=platform.spec,
                  transfer=platform.default_transfer())
    if not platform.supports_gpu_cache:
        kwargs["cache_policy"] = None
        kwargs["cache_ratio"] = 0.0
    kwargs.update(overrides)
    return TrainingConfig(**kwargs)
