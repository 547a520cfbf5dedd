"""Batch-size schedules, including the paper's adaptive method (§6.3.1).

The paper's analysis: small batches produce large gradient magnitudes
that find the descent direction quickly but can't settle; large batches
produce small gradients that converge precisely but slowly.  Its proposed
*adaptive batch size* therefore starts small and grows toward a maximum —
"first use a large gradient magnitude to find the optimal point
direction and then use a small gradient magnitude to close the optimal
point" — reported to speed convergence by 1.5–1.6x (Figure 10).
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import TrainingError

__all__ = ["BatchSizeSchedule", "FixedBatchSize",
           "PlateauAdaptiveBatchSize"]


class BatchSizeSchedule(abc.ABC):
    """Decides the batch size for each epoch.

    ``observe`` feeds back the epoch's validation accuracy so schedules
    can react to plateaus; stateless schedules ignore it.
    """

    @abc.abstractmethod
    def size(self, epoch):
        """Batch size to use for ``epoch`` (0-based)."""

    def observe(self, epoch, val_accuracy):
        """Feed back validation accuracy after ``epoch`` (optional)."""


class FixedBatchSize(BatchSizeSchedule):
    """The ordinary constant batch size."""

    def __init__(self, batch_size):
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = int(batch_size)

    def size(self, epoch):
        return self.batch_size

    def __repr__(self):
        return f"FixedBatchSize({self.batch_size})"


class PlateauAdaptiveBatchSize(BatchSizeSchedule):
    """Grow the batch size when validation accuracy plateaus.

    Tracks the best validation accuracy seen at the current size; after
    ``patience`` epochs without an improvement of at least ``tolerance``,
    the size is multiplied by ``factor`` (capped at ``maximum``).
    """

    def __init__(self, start, maximum, factor=2.0, patience=3,
                 tolerance=2e-3):
        if start < 1 or maximum < start:
            raise TrainingError(
                f"need 1 <= start <= maximum, got {start}, {maximum}")
        self.start = int(start)
        self.maximum = int(maximum)
        self.factor = float(factor)
        self.patience = int(patience)
        self.tolerance = float(tolerance)
        self._current = int(start)
        self._best = -np.inf
        self._stale = 0

    def size(self, epoch):
        return self._current

    def observe(self, epoch, val_accuracy):
        if val_accuracy > self._best + self.tolerance:
            self._best = val_accuracy
            self._stale = 0
            return
        self._stale += 1
        if self._stale >= self.patience and self._current < self.maximum:
            self._current = int(min(self._current * self.factor,
                                    self.maximum))
            self._stale = 0

    def __repr__(self):
        return (f"PlateauAdaptiveBatchSize({self.start}->{self.maximum}, "
                f"patience={self.patience})")
