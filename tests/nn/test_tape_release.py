"""``Tensor.backward`` releases the tape it walks.

Each node drops its closure and parents before its backward runs, so
what the caller does not hold is freed by reference counting alone —
no ``gc.collect()`` here — while the caller's tensors keep their
gradients.  A second backward through a released tape raises instead of
accumulating a partial gradient.  An operator and its memoized
transpose form no reference cycle, so ``del`` frees both with the
collector off.
"""

import gc
import inspect
import weakref

import numpy as np
import pytest

from repro import load_dataset
from repro.errors import TrainingError
from repro.kernels import gspmm, normalized_block_adjacency
from repro.kernels.adjacency import KernelCSR
from repro.nn import Tensor, build_model, softmax_cross_entropy
from repro.sampling import NeighborSampler


@pytest.fixture
def collector_off():
    """Nothing on the tape may depend on the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.1)


def forward_by_hand(model, subgraph, features, self_loops):
    """``model.forward`` with every intermediate named: the logits, the
    per-layer pre-activation / activation / dropout tensors, and each
    block's operator and its transpose (built up front here; backward
    would build it)."""
    h = Tensor(features)
    layers, operators = [], []
    for i, (conv, block) in enumerate(zip(model.convs, subgraph.blocks)):
        operator = normalized_block_adjacency(block, self_loops)
        operators += [operator, operator.transpose()]
        pre = conv.forward_block(block, h)
        h = pre.relu()
        named = [pre, h]
        if i < len(model.convs) - 1:
            h = model.dropout.forward(h)
            named.append(h)
        layers.append(named)
    logits = model.head.forward(h)
    return logits, layers, operators


@pytest.mark.parametrize("name", ["gcn", "graphsage"])
def test_backward_frees_what_the_caller_does_not_hold(data, name,
                                                      collector_off):
    rng = np.random.default_rng(0)
    model = build_model(name, data.feature_dim, data.num_classes,
                        rng=rng, dropout=0.3)
    subgraph = NeighborSampler((4, 3)).sample(
        data.graph, data.train_ids[:16], rng)
    logits, layers, operators = forward_by_hand(
        model, subgraph, data.features[subgraph.input_nodes],
        self_loops=name == "gcn")
    keep = inspect.getclosurevars(layers[0][2]._backward).nonlocals["keep"]
    loss = softmax_cross_entropy(logits, data.labels[subgraph.seeds])
    held = layers[-1].pop(0)
    dead = [weakref.ref(t.data) for named in layers for t in named]
    dead += [weakref.ref(keep)] + [weakref.ref(op) for op in operators]
    del subgraph, layers, operators, keep
    loss.backward()
    assert [ref() is None for ref in dead] == [True] * len(dead)
    # The caller's tensors keep their gradients; the tape is gone.
    assert held.grad is not None and held.grad.shape == held.shape
    assert logits.grad is not None
    assert all(p.grad is not None for p in model.parameters())
    assert loss._parents == () and logits._parents == ()


def test_held_intermediate_keeps_its_gradient_bytes():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    h = (x @ w).relu()
    (h * h).sum().backward()
    expected = 2.0 * h.data
    assert h.grad.tobytes() == expected.tobytes()
    assert x.grad is not None and w.grad is not None


def test_second_backward_through_a_released_tape_raises():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    loss = (x.relu() * 3.0).sum()
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(TrainingError, match="released"):
        loss.backward()
    assert x.grad.tobytes() == first.tobytes()


def test_a_new_tape_over_a_released_intermediate_raises():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    h = x * 2.0
    h.sum().backward()
    with pytest.raises(TrainingError, match="released"):
        (h * 3.0).sum().backward()


def test_leaf_roots_backward_again():
    # A leaf has no tape to release: backward from it accumulates.
    x = Tensor(np.ones(3), requires_grad=True)
    x.backward(np.ones(3))
    x.backward(np.ones(3))
    assert x.grad.tolist() == [2.0, 2.0, 2.0]


def operator(rows=4, cols=5, seed=2):
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < 0.5) * rng.random((rows, cols))
    indptr = np.concatenate(([0], np.cumsum((dense != 0).sum(axis=1))))
    indices = np.nonzero(dense)[1]
    return KernelCSR(indptr, indices, dense[dense != 0], dense.shape)


def test_del_frees_an_operator_and_its_transpose(collector_off):
    adj = operator()
    transpose = adj.transpose()
    assert transpose.transpose() is adj
    refs = weakref.ref(adj), weakref.ref(transpose)
    del adj, transpose
    assert [ref() for ref in refs] == [None, None]


def test_a_transpose_outliving_its_operator_transposes_again():
    adj = operator()
    transpose = adj.transpose()
    dense = np.zeros(adj.shape)
    np.add.at(dense, (adj.edges().edge_dst, adj.indices), adj.data)
    del adj
    again = transpose.transpose()
    assert again.transpose() is transpose
    rebuilt = np.zeros(again.shape)
    np.add.at(rebuilt, (again.edges().edge_dst, again.indices), again.data)
    assert rebuilt.astype(np.float32).tobytes() \
        == dense.astype(np.float32).tobytes()


def test_backward_through_gspmm_frees_the_operator(collector_off):
    adj = operator()
    x = Tensor(np.ones((5, 2), dtype=np.float32), requires_grad=True)
    out = gspmm(adj, x).sum()
    refs = weakref.ref(adj), weakref.ref(adj.transpose())
    del adj
    out.backward()
    assert [ref() for ref in refs] == [None, None]
    assert x.grad.shape == (5, 2)
