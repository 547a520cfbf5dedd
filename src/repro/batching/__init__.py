"""Batch selection and batch-size scheduling."""

from .schedule import (BatchSizeSchedule, FixedBatchSize,
                       PlateauAdaptiveBatchSize)
from .selection import (BatchSelector, ClusterBatchSelector,
                        RandomBatchSelector)

__all__ = [
    "BatchSelector", "RandomBatchSelector", "ClusterBatchSelector",
    "BatchSizeSchedule", "FixedBatchSize", "PlateauAdaptiveBatchSize",
]
