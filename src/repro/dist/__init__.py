"""Simulated distributed runtime: workers, the all-reduce cost model,
the mini-batch and full-graph engines."""

from .engine import EpochStats, SyncEngine
from .fullbatch import FullBatchEngine, FullGraph
from .worker import BatchWork, Worker

__all__ = ["Worker", "BatchWork", "SyncEngine", "EpochStats",
           "FullBatchEngine", "FullGraph"]
