"""Table 7: prediction accuracy of high- vs low-degree vertices under
different fanouts (Arxiv).

Paper findings (§6.3.3): as fanout grows, accuracy on high-degree
vertices increases (more of their many neighbors get sampled) while
accuracy on low-degree vertices stays flat or declines — a fixed fanout
cannot serve both populations, motivating the hybrid sampler.
"""

import numpy as np

from repro import Trainer
from repro.core import format_table
from repro.core.trainer import evaluate_model
from repro.sampling import NeighborSampler

from common import bench_dataset, quick_config, run_once

DATASET = "ogb-arxiv"
EPOCHS = 15
FANOUTS = ((2, 2), (8, 8), (16, 16))


def degree_groups(dataset):
    """Split test vertices into low/high degree halves around the
    median degree."""
    degrees = dataset.graph.out_degrees[dataset.test_ids]
    median = np.median(degrees)
    low = dataset.test_ids[degrees <= median]
    high = dataset.test_ids[degrees > median]
    return low, high


def build_rows():
    dataset = bench_dataset(DATASET)
    low_ids, high_ids = degree_groups(dataset)
    low_row = {"vertex type": "low-degree"}
    high_row = {"vertex type": "high-degree"}
    for fanout in FANOUTS:
        sampler = NeighborSampler(fanout)
        config = quick_config(epochs=EPOCHS, batch_size=128,
                              num_workers=1, partitioner="hash",
                              sampler=sampler)
        trainer = Trainer(dataset, config)
        engine, _partition, _sampler, model, _opt = trainer._build_engine()
        rng = config.rng(salt=100)
        for epoch in range(EPOCHS):
            engine.run_epoch(128, rng, epoch=epoch)
        eval_rng = np.random.default_rng(55)
        label = f"fanout{fanout}"
        low_row[label] = round(evaluate_model(
            model, dataset, low_ids, sampler, eval_rng), 3)
        high_row[label] = round(evaluate_model(
            model, dataset, high_ids, sampler, eval_rng), 3)
    return [low_row, high_row]


def test_table7_degree_accuracy(benchmark):
    rows = run_once(benchmark, build_rows)
    print()
    print(format_table(rows, title=f"Table 7: accuracy by degree "
                                   f"({DATASET})"))
    low, high = rows
    small, large = "fanout(2, 2)", "fanout(16, 16)"
    # High-degree vertices gain from larger fanouts.
    assert high[large] > high[small]
    # Low-degree vertices gain much less (their neighborhoods are
    # exhausted early): the high-degree gain dominates.
    low_gain = low[large] - low[small]
    high_gain = high[large] - high[small]
    assert high_gain > low_gain


if __name__ == "__main__":
    print(format_table(build_rows(), title="Table 7"))
