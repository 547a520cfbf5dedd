"""Ablation: full-batch vs mini-batch training, and Sancus-style
staleness.

Backs two of the paper's framing claims with measurements:

* §6.2 — "the model parameters are updated only once within an epoch
  [in full-batch training], which results in slower model convergence":
  mini-batch reaches the accuracy target in less simulated time.
* Table 1's Sancus row — staleness-aware communication avoidance cuts
  full-batch epoch time by skipping boundary-embedding broadcasts, at a
  bounded accuracy cost (measured, since the stale math runs for real).

Both arms run on the one harness, :class:`~repro.core.Trainer`, with
one partition and one initialisation: the full-batch rows set
``sampler=FullGraph(staleness)`` and read the same ``TrainingResult``.
"""

import numpy as np

from repro import Trainer
from repro.core import format_table
from repro.dist import FullGraph

from common import bench_dataset, quick_config, run_once

DATASET = "ogb-arxiv"
EPOCHS = 30
TARGET = 0.80

#: (row label, config overrides); every arm uses the same learning
#: rate, seeds and METIS-VE partition for a fair comparison.
ARMS = [("mini-batch (fanout 10,10 / bs 128)",
         dict(batch_size=128, fanout=(10, 10)))] + [
    (f"full-batch (staleness={staleness})",
     dict(sampler=FullGraph(staleness))) for staleness in (0, 1, 3)]


def run_row(dataset, mode, overrides):
    result = Trainer(dataset, quick_config(
        epochs=EPOCHS, partitioner="metis-ve", **overrides)).run()
    reach = result.curve.time_to_accuracy(TARGET)
    reach_epoch = None
    if reach is not None:
        reach_epoch = int(np.searchsorted(result.curve.cumulative_seconds,
                                          reach))
    return {"mode": mode,
            "best val acc": round(result.best_val_accuracy, 3),
            f"time to {TARGET} (sim s)": reach,
            f"epochs to {TARGET}": reach_epoch,
            "mean epoch (sim s)": round(result.mean_epoch_seconds, 5)}


def build_rows():
    dataset = bench_dataset(DATASET)
    return [run_row(dataset, mode, overrides) for mode, overrides in ARMS]


def test_ablation_fullbatch_vs_minibatch(benchmark):
    rows = run_once(benchmark, build_rows)
    print()
    print(format_table(rows,
                       title=f"Ablation: training mode ({DATASET})"))
    epoch_key = f"epochs to {TARGET}"
    mini = rows[0]
    fresh = next(r for r in rows if r["mode"].endswith("staleness=0)"))
    stale = next(r for r in rows if r["mode"].endswith("staleness=3)"))
    # §6.2: full-batch updates once per epoch, so it needs more epochs
    # to reach the target than mini-batch (which updates ~7x per epoch).
    assert mini[epoch_key] is not None
    if fresh[epoch_key] is not None:
        assert mini[epoch_key] <= fresh[epoch_key]
    # Sancus: staleness shortens epochs, accuracy stays in range.
    assert stale["mean epoch (sim s)"] < fresh["mean epoch (sim s)"]
    assert stale["best val acc"] > fresh["best val acc"] - 0.1


if __name__ == "__main__":
    print(format_table(build_rows(), title="Ablation: full-batch"))
