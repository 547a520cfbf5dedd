"""The head is the offline pass's last layer: the per-vertex logit
table against the per-request row loop it replaced
(``_rowwise_oracle.py``), the untaped build, and the
vertex-id validation that keeps a hostile trace away from the gather.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.errors import ServingError
from repro.fleet import FleetEngine
from repro.nn import build_model, no_grad
from repro.nn import tensor as tensor_module
from repro.nn.layers import GCN, MLP, GraphSAGE
from repro.serve import InferenceRequest, LayerwiseEmbeddings, ServeEngine

from tests.serve._rowwise_oracle import rowwise_logits


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.1)


def build(data, model_cls, hidden, classes, mids, dtype, seed,
          dropout=0.0):
    """A model whose head is ``hidden -> *mids -> classes``, with every
    parameter (and the features) in ``dtype``."""
    rng = np.random.default_rng(seed)
    model = model_cls(data.feature_dim, hidden, classes, 2, rng)
    model.head = MLP([hidden, *mids, classes], rng, dropout=dropout)
    for param in model.parameters():
        param.data = param.data.astype(dtype)
    return model, data.features.astype(dtype)


# ----------------------------------------------------------------------
# The table is the row loop, bit for bit, under any batching
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(model_cls=st.sampled_from([GCN, GraphSAGE]),
       hidden=st.sampled_from([1, 8, 33, 128]),
       classes=st.sampled_from([1, 2, 7, 40]),
       mids=st.lists(st.sampled_from([4, 16, 50]), max_size=2),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2 ** 16))
def test_logit_table_is_the_row_loop(data, model_cls, hidden, classes,
                                     mids, dtype, seed):
    model, features = build(data, model_cls, hidden, classes, mids,
                            dtype, seed)
    everyone = np.arange(data.num_vertices)
    with no_grad():
        embeddings = LayerwiseEmbeddings(model, data.graph, features)
        oracle = rowwise_logits(embeddings, everyone)

    # (a) the table itself, over every vertex.
    table = embeddings.logit_table
    assert table.dtype == oracle.dtype == dtype
    assert table.shape == oracle.shape == (data.num_vertices, classes)
    assert table.tobytes() == oracle.tobytes()

    # (b) any batch — permuted, with duplicates — cut any way: the
    # served answers are the row loop's argmax, its logits the rows.
    rng = np.random.default_rng(seed)
    batch = np.concatenate([rng.permutation(everyone)[:40],
                            rng.integers(0, data.num_vertices, 40)])
    expected = oracle[batch].argmax(axis=-1).tobytes()
    for chunk in (1, 8, 16, len(batch)):
        served = np.concatenate([
            embeddings.answers(batch[i:i + chunk])
            for i in range(0, len(batch), chunk)])
        assert served.dtype == np.int64
        assert served.tobytes() == expected
    assert embeddings.rowwise_logits(batch).tobytes() \
        == rowwise_logits(embeddings, batch).tobytes()

    # (c) the empty batch is still refused.
    for read in (embeddings.answers, embeddings.rowwise_logits):
        with pytest.raises(ServingError, match="empty query batch"):
            read([])


def test_served_rows_are_copies(data):
    model, features = build(data, GCN, 8, 5, [], np.float32, 0)
    embeddings = LayerwiseEmbeddings(model, data.graph, features)
    logits = embeddings.logit_table.copy()
    answers = embeddings.answer_table.copy()
    embeddings.rowwise_logits([3, 3, 7])[:] = np.nan
    embeddings.answers([3, 3, 7])[:] = -1
    assert np.array_equal(embeddings.logit_table, logits)
    assert np.array_equal(embeddings.answer_table, answers)


# ----------------------------------------------------------------------
# The build runs the head untaped and leaves the dropout rng alone
# ----------------------------------------------------------------------
def test_training_mode_model_builds_the_eval_table(data):
    model, features = build(data, GCN, 16, 7, [12], np.float32, 5,
                            dropout=0.5)
    rng_before = model.rng_state()
    trained = LayerwiseEmbeddings(model, data.graph, features)
    assert tensor_module._taping
    assert model.rng_state() == rng_before

    with no_grad():
        evaluated = LayerwiseEmbeddings(model, data.graph, features)
    assert tensor_module._taping
    assert model.rng_state() == rng_before
    assert trained.logit_table.tobytes() \
        == evaluated.logit_table.tobytes()
    everyone = np.arange(data.num_vertices)
    assert trained.logit_table.tobytes() \
        == rowwise_logits(evaluated, everyone).tobytes()


# ----------------------------------------------------------------------
# Hostile vertex ids: a typed error before anything is served
# ----------------------------------------------------------------------
def _engines(data):
    model = build_model("gcn", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(7))
    return [ServeEngine(data, model, mode="precomputed"),
            FleetEngine(data, model, partition="hash", num_replicas=2,
                        mode="precomputed")]


@pytest.mark.parametrize("hostile", [
    lambda n: n, lambda n: n + 5, lambda n: -1, lambda n: -n - 1,
], ids=["n", "n+5", "-1", "-n-1"])
def test_out_of_range_vertex_is_a_serving_error(data, hostile):
    # -1 used to come back one logit row short, so the two-request
    # trace reported "completed 1" with the wrong vertex's answer;
    # the others died with a bare IndexError.
    n = data.num_vertices
    vertex = hostile(n)
    trace = [InferenceRequest(0, 1, 0.0),
             InferenceRequest(1, vertex, 1e-5),
             InferenceRequest(2, n + 9, 2e-5)]
    for engine in _engines(data):
        with pytest.raises(ServingError) as info:
            engine.run(trace)
        message = str(info.value)
        assert f"request 1 queries vertex {vertex};" in message
        assert f"0..{n - 1}" in message


def test_boundary_vertices_are_served(data):
    n = data.num_vertices
    trace = [InferenceRequest(0, 0, 0.0),
             InferenceRequest(1, n - 1, 1e-5)]
    for engine in _engines(data):
        report = engine.run(trace)
        assert report.completed == 2
        assert sorted(r.request.vertex for r in report.responses) \
            == [0, n - 1]
