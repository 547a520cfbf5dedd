"""Golden end-to-end bit-identity across the kernel-registry seam.

``tests/golden/kernel_refactor.json`` was generated at the commit
*before* the aggregation paths were routed through ``repro.kernels``
(see ``tools/gen_golden_kernels.py``).  These tests re-run the exact
recipes — sampled training curves, a seeded GAT forward/backward, the
layer-wise serving tables and their three read paths — and compare
against the stored fingerprints with sha256 over raw bytes (``atol=0``
by construction): the refactor must change *nothing*, with the
reference oracle swapped into the seam and on the shipped compiled
path.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import Trainer, TrainingConfig, load_dataset
from repro.nn import build_model
from repro.nn.loss import softmax_cross_entropy
from repro.sampling import NeighborSampler
from repro.serve import LayerwiseEmbeddings

from ._reference_oracle import kernel_path

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" \
    / "kernel_refactor.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: The scatter oracle in the seam, and the shipped (``auto``) path.
BACKENDS = ["reference", "auto"]


def _digest(array):
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":  # pragma: no cover - LE platforms
        array = array.astype(array.dtype.newbyteorder("<"))
    return f"{array.dtype.name}:{hashlib.sha256(array.tobytes()).hexdigest()}"


@pytest.fixture(scope="module", params=BACKENDS)
def backend(request):
    with kernel_path(request.param):
        yield request.param


@pytest.mark.parametrize("model", ["gcn", "graphsage"])
def test_training_curves_bit_identical(backend, model):
    dataset = load_dataset("ogb-arxiv", scale=0.05)
    config = TrainingConfig(model=model, epochs=3, batch_size=128,
                            fanout=(4, 4), num_workers=2,
                            partitioner="hash", seed=7)
    result = Trainer(dataset, config).run()
    expected = GOLDEN["training"][model]
    assert [float(v) for v in result.curve.losses] \
        == expected["losses"]
    assert [float(v) for v in result.curve.val_accuracies] \
        == expected["val_accuracies"]
    assert float(result.test_accuracy) == expected["test_accuracy"]


def test_gat_forward_backward_bit_identical(backend):
    dataset = load_dataset("ogb-arxiv", scale=0.05)
    sampler = NeighborSampler((4, 4))
    seeds = dataset.train_ids[:24]
    subgraph = sampler.sample(dataset.graph, seeds,
                              np.random.default_rng(5))
    model = build_model("gat", dataset.feature_dim,
                        dataset.num_classes,
                        rng=np.random.default_rng(11), dropout=0.0)
    logits = model.forward(subgraph,
                           dataset.features[subgraph.input_nodes])
    loss = softmax_cross_entropy(logits, dataset.labels[seeds])
    loss.backward()
    grads = np.concatenate([p.grad.ravel()
                            for p in model.parameters()])

    expected = GOLDEN["gat"]
    assert [float(v) for v in logits.data.ravel()[:8]] \
        == expected["logits_head"]
    assert _digest(logits.data) == expected["logits_sha256"]
    assert float(loss.item()) == expected["loss"]
    assert _digest(grads) == expected["grads_sha256"]


@pytest.mark.parametrize("model_name", ["gcn", "graphsage"])
def test_serving_tables_bit_identical(backend, model_name):
    dataset = load_dataset("ogb-arxiv", scale=0.1)
    model = build_model(model_name, dataset.feature_dim,
                        dataset.num_classes,
                        rng=np.random.default_rng(3))
    embeddings = LayerwiseEmbeddings(model, dataset.graph,
                                     dataset.features)
    probe = dataset.test_ids[:32]
    logits = embeddings.logits(probe)
    rowwise = embeddings.logit_table[probe[:8]]
    ondemand, stats = embeddings.ondemand_logits(probe[:8])

    expected = GOLDEN["serving"][model_name]
    assert _digest(embeddings.table) == expected["table_sha256"]
    assert _digest(logits) == expected["logits_sha256"]
    assert _digest(rowwise) == expected["rowwise_sha256"]
    assert _digest(ondemand) == expected["ondemand_sha256"]
    assert int(stats.edges) == expected["ondemand_edges"]
    assert [float(v) for v in logits.ravel()[:8]] \
        == expected["logits_head"]
