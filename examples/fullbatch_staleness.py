"""Full-batch distributed training and Sancus-style staleness.

Trains the same full-graph GCN on the one training harness three ways
— synchronous full-batch (boundary embeddings exchanged every epoch),
staleness 1, and staleness 3 — and prints the epoch-time / accuracy
trade Sancus's communication avoidance buys.

Usage::

    python examples/fullbatch_staleness.py
"""

from repro import Trainer, TrainingConfig, load_dataset
from repro.core import format_table
from repro.dist import FullGraph

EPOCHS = 25


def run(dataset, staleness):
    result = Trainer(dataset, TrainingConfig(
        sampler=FullGraph(staleness), partitioner="metis-ve",
        epochs=EPOCHS)).run()
    comm_bytes = sum(s.remote_feature_bytes for s in result.epoch_stats)
    return {
        "staleness": staleness,
        "best val acc": round(result.best_val_accuracy, 3),
        "mean epoch (sim ms)": round(1e3 * result.mean_epoch_seconds, 4),
        "boundary traffic (MB)": round(comm_bytes / 1e6, 2),
    }


def main():
    dataset = load_dataset("ogb-arxiv", scale=0.5)
    rows = [run(dataset, staleness) for staleness in (0, 1, 3)]
    print(format_table(rows, title="Full-batch training with "
                                   "staleness-aware communication"))
    fresh, stale = rows[0], rows[-1]
    saved = 1 - stale["boundary traffic (MB)"] / max(
        fresh["boundary traffic (MB)"], 1e-9)
    print(f"\nstaleness=3 removes {100 * saved:.0f}% of the boundary "
          f"traffic at {fresh['best val acc'] - stale['best val acc']:+.3f} "
          f"accuracy delta")


if __name__ == "__main__":
    main()
