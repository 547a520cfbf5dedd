#!/usr/bin/env python
"""Regenerate the kernel-refactor golden fingerprints.

``tests/golden/kernel_refactor.json`` pins the exact (bit-level)
numerical behaviour of the aggregation paths: training curves for the
sampled trainer, a seeded GAT forward/backward, and the layer-wise
serving tables that the fleet answers from.  The kernel golden tests
compare the current tree against these fingerprints with ``atol=0``,
so a refactor of the aggregation seam must reproduce the recorded runs
bit-for-bit, on the compiled kernels and on the reference oracle.

Run from the repo root::

    PYTHONPATH=src python tools/gen_golden_kernels.py

Only regenerate the file for an *intentional* numerical change, and
say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import Trainer, TrainingConfig, load_dataset
from repro.nn import build_model
from repro.nn.loss import softmax_cross_entropy
from repro.sampling import NeighborSampler
from repro.serve import LayerwiseEmbeddings

OUT = Path(__file__).resolve().parents[1] / "tests" / "golden" \
    / "kernel_refactor.json"


def _digest(array):
    """sha256 of an array's raw little-endian bytes (dtype-tagged)."""
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":  # pragma: no cover - LE platforms
        array = array.astype(array.dtype.newbyteorder("<"))
    return f"{array.dtype.name}:{hashlib.sha256(array.tobytes()).hexdigest()}"


def training_curves():
    """Sampled-trainer loss/accuracy curves (the hot path end to end)."""
    dataset = load_dataset("ogb-arxiv", scale=0.05)
    out = {}
    for model in ("gcn", "graphsage"):
        config = TrainingConfig(model=model, epochs=3, batch_size=128,
                                fanout=(4, 4), num_workers=2,
                                partitioner="hash", seed=7)
        result = Trainer(dataset, config).run()
        out[model] = {
            "losses": [float(v) for v in result.curve.losses],
            "val_accuracies": [float(v)
                               for v in result.curve.val_accuracies],
            "test_accuracy": float(result.test_accuracy),
        }
    return out


def gat_forward_backward():
    """Seeded GAT forward logits + parameter gradients on one block
    stack (exercises the SDDMM/edge-softmax/weighted-SpMM path)."""
    dataset = load_dataset("ogb-arxiv", scale=0.05)
    sampler = NeighborSampler((4, 4))
    seeds = dataset.train_ids[:24]
    subgraph = sampler.sample(dataset.graph, seeds,
                              np.random.default_rng(5))
    # No dropout: the forward must be a pure function.
    model = build_model("gat", dataset.feature_dim, dataset.num_classes,
                        rng=np.random.default_rng(11), dropout=0.0)
    logits = model.forward(subgraph,
                           dataset.features[subgraph.input_nodes])
    loss = softmax_cross_entropy(logits, dataset.labels[seeds])
    loss.backward()
    grads = np.concatenate([p.grad.ravel() for p in model.parameters()])
    return {
        "logits_sha256": _digest(logits.data),
        "loss": float(loss.item()),
        "grads_sha256": _digest(grads),
        "logits_head": [float(v) for v in logits.data.ravel()[:8]],
    }


def serving_tables():
    """Layer-wise embedding tables and the three serving read paths
    (``serve`` single-server and the ``fleet`` row-wise contract)."""
    dataset = load_dataset("ogb-arxiv", scale=0.1)
    out = {}
    for model_name in ("gcn", "graphsage"):
        model = build_model(model_name, dataset.feature_dim,
                            dataset.num_classes,
                            rng=np.random.default_rng(3))
        embeddings = LayerwiseEmbeddings(model, dataset.graph,
                                         dataset.features)
        probe = dataset.test_ids[:32]
        logits = embeddings.logits(probe)
        rowwise = embeddings.logit_table[probe[:8]]
        ondemand, stats = embeddings.ondemand_logits(probe[:8])
        out[model_name] = {
            "table_sha256": _digest(embeddings.table),
            "logits_sha256": _digest(logits),
            "rowwise_sha256": _digest(rowwise),
            "ondemand_sha256": _digest(ondemand),
            "ondemand_edges": int(stats.edges),
            "logits_head": [float(v) for v in logits.ravel()[:8]],
        }
    return out


def main():
    golden = {
        "_comment": "Bit-level fingerprints of the aggregation paths; "
                    "see tools/gen_golden_kernels.py.",
        "training": training_curves(),
        "gat": gat_forward_backward(),
        "serving": serving_tables(),
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
