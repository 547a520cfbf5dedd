"""Repeated runs of one configuration: mean ± std over seeds."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from .trainer import Trainer

__all__ = ["repeat", "RepeatedResult"]


class RepeatedResult:
    """Aggregate of one configuration run under several seeds.

    Small-graph experiments are noisy; repeated runs report mean ±
    standard deviation of the headline metrics instead of a single
    draw.
    """

    def __init__(self, results):
        if not results:
            raise TrainingError("no results to aggregate")
        self.results = list(results)

    def _stats(self, values):
        values = np.asarray(values, dtype=np.float64)
        return float(values.mean()), float(values.std())

    @property
    def best_val_accuracy(self):
        """(mean, std) of the best validation accuracy."""
        return self._stats([r.best_val_accuracy for r in self.results])

    @property
    def test_accuracy(self):
        return self._stats([r.test_accuracy for r in self.results])

    @property
    def mean_epoch_seconds(self):
        return self._stats([r.mean_epoch_seconds for r in self.results])

    def convergence_time(self, fraction=0.98):
        """(mean, std) over the runs that reached the target; also
        returns how many did as the third element."""
        times = [r.curve.convergence_time(fraction)
                 for r in self.results]
        reached = [t for t in times if t is not None]
        if not reached:
            return None, None, 0
        mean, std = self._stats(reached)
        return mean, std, len(reached)

    def summary(self):
        """Printable mean±std headline metrics."""
        acc_mean, acc_std = self.best_val_accuracy
        time_mean, time_std = self.mean_epoch_seconds
        return {
            "runs": len(self.results),
            "best_val_acc": f"{acc_mean:.3f} ± {acc_std:.3f}",
            "epoch_seconds": f"{time_mean:.5f} ± {time_std:.5f}",
        }


def repeat(dataset, config, seeds=(0, 1, 2)):
    """Run one configuration once per seed; returns a
    :class:`RepeatedResult`."""
    if not seeds:
        raise TrainingError("repeat needs at least one seed")
    results = []
    for seed in seeds:
        results.append(Trainer(dataset,
                               config.with_overrides(seed=seed)).run())
    return RepeatedResult(results)
