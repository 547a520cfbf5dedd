"""The offline pass ends at the answer: ``LayerwiseEmbeddings.answers``
gathers from ``answer_table``, which must be the logit table's argmax
byte for byte — every vertex, and any batch with duplicates — with the
serving read's contract kept (empty batch refused, result a copy)."""

import numpy as np
import pytest

from repro import load_dataset
from repro.errors import ServingError
from repro.nn import build_model
from repro.serve import LayerwiseEmbeddings


@pytest.fixture(scope="module", params=[0.1, 0.3], ids=["x0.1", "x0.3"])
def data(request):
    return load_dataset("ogb-arxiv", scale=request.param)


@pytest.fixture(scope="module", params=["gcn", "graphsage"])
def embeddings(request, data):
    model = build_model(request.param, data.feature_dim,
                        data.num_classes, rng=np.random.default_rng(11))
    return LayerwiseEmbeddings(model, data.graph, data.features)


def test_every_vertex_is_its_logit_rows_argmax(embeddings):
    everyone = np.arange(embeddings.num_vertices)
    expected = embeddings.logit_table[everyone].argmax(-1)
    assert embeddings.answer_table.dtype == np.int64
    assert embeddings.answer_table.tobytes() == expected.tobytes()
    assert embeddings.answers(everyone).tobytes() == expected.tobytes()


def test_batches_with_duplicates(embeddings):
    rng = np.random.default_rng(5)
    n = embeddings.num_vertices
    for size in (1, 2, 13, 64, 3 * n):
        batch = rng.integers(0, n, size)
        expected = embeddings.logit_table[batch].argmax(-1)
        assert embeddings.answers(batch).tobytes() == expected.tobytes()
        assert embeddings.answers(batch.tolist()).tobytes() \
            == expected.tobytes()


def test_empty_batch_is_refused(embeddings):
    for empty in ([], np.empty(0, dtype=np.int64)):
        with pytest.raises(ServingError, match="empty query batch"):
            embeddings.answers(empty)


def test_answers_are_a_copy(embeddings):
    before = embeddings.answer_table.copy()
    served = embeddings.answers([0, 0, 1])
    served[:] = -1
    assert np.array_equal(embeddings.answer_table, before)
