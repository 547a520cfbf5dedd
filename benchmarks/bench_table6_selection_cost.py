"""Table 6: epoch time and involved vertices/edges of batch selection
methods.

Paper (Products): cluster-based batches involve ~0.6x the vertices and
~0.8x the edges of random batches and cut the epoch time by more than
half, because clustered seeds share sampled neighbors.
"""

import numpy as np

from repro import Trainer
from repro.core import format_table

from common import bench_dataset, quick_config, run_once

DATASETS = ("ogb-products", "reddit")
EPOCHS = 4
#: Row label -> TrainingConfig.batch_selection.
SELECTIONS = {"random": "random", "cluster-based": "cluster"}


def measure(dataset, selection):
    config = quick_config(epochs=EPOCHS, batch_size=128, num_workers=1,
                          partitioner="hash", fanout=(10, 10),
                          batch_selection=selection)
    stats = Trainer(dataset, config).run().epoch_stats
    return {
        "epoch time (sim s)": float(np.mean(
            [s.epoch_seconds for s in stats])),
        "involved #V": float(np.mean(
            [s.involved_vertices for s in stats])),
        "involved #E": float(np.mean([s.involved_edges for s in stats])),
    }


def build_rows():
    rows = []
    for dataset_name in DATASETS:
        dataset = bench_dataset(dataset_name)
        for label, selection in SELECTIONS.items():
            row = {"dataset": dataset_name, "method": label}
            row.update({k: round(v, 6)
                        for k, v in measure(dataset, selection).items()})
            rows.append(row)
    return rows


def test_table6_selection_cost(benchmark):
    rows = run_once(benchmark, build_rows)
    print()
    print(format_table(rows, title="Table 6: batch selection cost"))
    for dataset_name in DATASETS:
        random_row = next(r for r in rows if r["dataset"] == dataset_name
                          and r["method"] == "random")
        cluster_row = next(r for r in rows if r["dataset"] == dataset_name
                           and r["method"] == "cluster-based")
        # Cluster-based involves fewer vertices and edges per epoch...
        assert cluster_row["involved #V"] < random_row["involved #V"]
        assert cluster_row["involved #E"] < random_row["involved #E"]
        # ... and a shorter epoch.
        assert (cluster_row["epoch time (sim s)"]
                < random_row["epoch time (sim s)"])


if __name__ == "__main__":
    print(format_table(build_rows(), title="Table 6"))
