"""The layer-wise table is the model's own full-graph forward.

``LayerwiseEmbeddings`` runs each conv's ``forward`` over the shared
full-graph operator, so its table is exactly the stack of
``conv.forward(full_graph_adjacency(graph, self_loops=False), h)`` plus
ReLU — for ``SAGEConv(normalize=True)`` too, whose L2 step divides by
``max(norm, 1e-8)``.  The weights are scaled so that row norms fall
between ``1e-12`` and ``1e-8``, where a separately written layer with a
different epsilon would disagree.
"""

import numpy as np
import pytest

from repro import load_dataset
from repro.kernels import full_graph_adjacency
from repro.nn import Tensor, build_model, no_grad
from repro.serve import LayerwiseEmbeddings

#: The row norm every layer's raw output is scaled to, in the median.
TINY = 1e-10


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.1)


def _raw_norms(conv, adjacency, h):
    with no_grad():
        conv.normalize = False
        raw = conv.forward(adjacency, h).data
        conv.normalize = True
    return np.sqrt((raw * raw).sum(axis=1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalized_sage_table_is_the_full_graph_forward(data, dtype):
    model = build_model("graphsage", data.feature_dim, data.num_classes,
                        hidden_dim=16, rng=np.random.default_rng(3))
    for param in model.parameters():
        param.data = param.data.astype(dtype)
    features = data.features.astype(dtype)
    adjacency = full_graph_adjacency(data.graph, self_loops=False)

    h = Tensor(features)
    with no_grad():
        for conv in model.convs:
            conv.normalize = True
            norms = _raw_norms(conv, adjacency, h)
            scale = dtype(TINY / np.median(norms[norms > 0]))
            conv.weight_self.data *= scale
            conv.weight_neigh.data *= scale
            norms = _raw_norms(conv, adjacency, h)
            assert np.count_nonzero((norms > 1e-12) & (norms < 1e-8)) \
                > len(norms) // 2
            h = conv.forward(adjacency, h).relu()

    embeddings = LayerwiseEmbeddings(model, data.graph, features)
    assert embeddings.table.dtype == dtype
    assert np.array_equal(embeddings.table, h.data)

    # The on-demand path runs the same convs on the same operator.
    probe = data.test_ids[:32]
    ondemand, _stats = embeddings.ondemand_logits(probe)
    assert ondemand.tobytes() == embeddings.logits(probe).tobytes()
