"""Simulated distributed runtime: workers, communication, the mini-batch
and full-graph engines."""

from .comm import CommMeter
from .engine import EpochStats, SyncEngine
from .fullbatch import FullBatchEngine, FullGraph
from .worker import BatchWork, Worker

__all__ = ["CommMeter", "Worker", "BatchWork", "SyncEngine", "EpochStats",
           "FullBatchEngine", "FullGraph"]
