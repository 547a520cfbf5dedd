"""Graph clustering: the paper's third downstream task.

Trains GNN embeddings with the normal pipeline, k-means them, and
checks how well the clusters recover the planted communities
(normalized mutual information), comparing against untrained
embeddings as a baseline.

Usage::

    python examples/graph_clustering.py
"""

import numpy as np

from repro import Trainer, TrainingConfig, load_dataset
from repro.core import format_table
from repro.nn import build_model
from repro.tasks import cluster_dataset


def main():
    dataset = load_dataset("ogb-arxiv", scale=0.5)
    config = TrainingConfig(epochs=10, batch_size=128, fanout=(8, 8),
                            num_workers=1, partitioner="hash")
    model = Trainer(dataset, config).run().model
    sampler = config.build_sampler()

    untrained = build_model("gcn", dataset.feature_dim,
                            dataset.num_classes,
                            rng=np.random.default_rng(123))
    rows = []
    for label, candidate in (("untrained GCN", untrained),
                             ("trained GCN", model)):
        result = cluster_dataset(dataset, candidate, sampler,
                                 rng=np.random.default_rng(0))
        rows.append({
            "embeddings": label,
            "NMI vs planted communities":
                round(result.nmi_vs_communities, 3),
            "NMI vs label classes": round(result.nmi_vs_classes, 3),
        })
    print(format_table(rows, title=f"k-means on GNN embeddings "
                                   f"({dataset.name})"))
    print("\n(1.0 = clusters match the planted communities exactly; "
          "~0 = independent)")


if __name__ == "__main__":
    main()
