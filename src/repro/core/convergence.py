"""Training curves and convergence-speed measurement.

The paper's convergence plots (Figures 7, 9, 10, 11, 12) put *simulated
training time* on the x-axis and validation accuracy on the y-axis;
"convergence speed" is the time needed to first reach a target accuracy.
:class:`TrainingCurve` stores exactly those series and answers those
queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError

__all__ = ["TrainingCurve", "time_to_accuracy"]


@dataclass
class TrainingCurve:
    """Per-epoch series of one training run."""

    val_accuracies: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)   # simulated
    wall_seconds: list = field(default_factory=list)    # actually measured
    batch_sizes: list = field(default_factory=list)

    def record(self, val_accuracy, loss, epoch_second, wall_second,
               batch_size):
        """Append one epoch's measurements."""
        self.val_accuracies.append(float(val_accuracy))
        self.losses.append(float(loss))
        self.epoch_seconds.append(float(epoch_second))
        self.wall_seconds.append(float(wall_second))
        self.batch_sizes.append(int(batch_size))

    @property
    def num_epochs(self):
        return len(self.val_accuracies)

    @property
    def cumulative_seconds(self):
        """Simulated time axis (cumulative epoch seconds)."""
        return np.cumsum(self.epoch_seconds)

    @property
    def best_accuracy(self):
        if not self.val_accuracies:
            raise TrainingError("empty curve")
        return max(self.val_accuracies)

    @property
    def mean_epoch_seconds(self):
        if not self.epoch_seconds:
            return 0.0
        return float(np.mean(self.epoch_seconds))

    def time_to_accuracy(self, target):
        """Simulated seconds to first reach ``target`` validation
        accuracy, or None if never reached."""
        times = self.cumulative_seconds
        for accuracy, when in zip(self.val_accuracies, times):
            if accuracy >= target:
                return float(when)
        return None

    def convergence_time(self, fraction=0.98):
        """Simulated seconds to first reach ``fraction`` of the curve's
        best accuracy — the paper's convergence-speed metric."""
        return self.time_to_accuracy(fraction * self.best_accuracy)

    def series(self):
        """(time, accuracy) pairs for plotting/printing."""
        return list(zip(self.cumulative_seconds.tolist(),
                        self.val_accuracies))


def time_to_accuracy(curve, target):
    """Module-level convenience mirroring
    :meth:`TrainingCurve.time_to_accuracy`."""
    return curve.time_to_accuracy(target)
