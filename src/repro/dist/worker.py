"""A logical training worker (one machine of the simulated cluster).

A worker owns a slice of the training vertices (decided by the
partitioner), an optional GPU feature cache, and produces the per-batch
counts the cost model turns into time.  Model math itself is shared —
synchronous data-parallel SGD keeps one logical parameter copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError

__all__ = ["Worker", "BatchWork"]


@dataclass
class BatchWork:
    """Counts and simulated stage times of one worker-batch."""

    seeds: int
    sampled_edges: int
    input_vertices: int
    remote_feature_bytes: int
    remote_sample_requests: int
    bp_seconds: float
    dt_seconds: float
    nn_seconds: float
    # Fault accounting (zero on healthy runs): remote-fetch re-requests,
    # exhausted retry budgets, and the simulated seconds they added
    # (already folded into bp_seconds).
    retries: int = 0
    giveups: int = 0
    fault_seconds: float = 0.0
    # Per-tier split of dt_seconds ({"hot": s, "warm": s, "cold": s})
    # when the worker fetches through a TieredCache; None for flat
    # caches.
    dt_tier_seconds: dict = None

    @property
    def stage_times(self):
        return (self.bp_seconds, self.dt_seconds, self.nn_seconds)


@dataclass
class Worker:
    """One machine: its identity, owned training vertices, and cache."""

    worker_id: int
    train_ids: np.ndarray
    cache: object = None           # TieredCache or None
    batches_done: int = 0
    # False once a permanent crash fault killed this machine; a dead
    # worker owns no training vertices and drops out of the all-reduce
    # ring (see SyncEngine's crash handling).
    alive: bool = True
    work_log: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.train_ids = np.asarray(self.train_ids, dtype=np.int64)

    def crash(self):
        """Mark this worker permanently dead and surrender its training
        vertices (returned for redistribution or dropping)."""
        surrendered = self.train_ids
        self.alive = False
        self.train_ids = np.empty(0, dtype=np.int64)
        return surrendered

    def adopt(self, vertex_ids):
        """Take over training vertices surrendered by a crashed peer."""
        if not self.alive:
            raise TrainingError(
                f"worker {self.worker_id} is dead and cannot adopt "
                f"vertices")
        self.train_ids = np.concatenate(
            [self.train_ids, np.asarray(vertex_ids, dtype=np.int64)])

    @property
    def num_train(self):
        return len(self.train_ids)

    def log(self, work):
        """Record one batch's accounting."""
        self.work_log.append(work)
        self.batches_done += 1

    def epoch_stage_times(self, last_n):
        """Stage-time triples of the most recent ``last_n`` batches."""
        return [w.stage_times for w in self.work_log[-last_n:]]
