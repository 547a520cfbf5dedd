"""Generated-configuration conformance for the COO kernels.

The fixed cases in ``conftest.py`` pin a handful of shapes; here
hypothesis generates the edge lists — duplicate edges, empty rows,
unsorted ``edge_dst``, rectangular shapes, ``nnz = 0``, 1-D operands,
edge values narrower than the features — and every kernel is held,
forward *and* backward, to a scatter specification written out
literally in this file (``np.add.at`` in list order).  Both the
``reference`` oracle swapped into the seam and the shipped (``auto``)
compiled path must match it byte for byte, so the destination-sorted
segment view (which the compiled forward, and every ``gsddmm``
backward, runs on) cannot drift from the list-order scatter it
replaces.  ``mul`` values wider than the features are a typed error.

Gradients are taken under an explicit random upstream gradient — a
weighted loss — so a mis-routed or mis-ordered edge cannot cancel out
(a silently wrong x-gradient once passed a looser suite).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import load_dataset
from repro.core.trainer import evaluate_model
from repro.errors import KernelError
from repro.kernels import (KernelCOO, edge_softmax, gsddmm, gspmm,
                           gspmm_forward)
from repro.nn import Tensor, build_model
from repro.nn.loss import softmax_cross_entropy
from repro.perf import PERF, EvalSubgraphCache
from repro.sampling import NeighborSampler

from ._reference_oracle import kernel_path, reference_kernels

#: The oracle in the seam, and the shipped path.
BACKENDS = ["reference", "auto"]
FLOATS = (np.float32, np.float64)
SETTINGS = dict(max_examples=60, deadline=None)


@st.composite
def coo_cases(draw):
    """``(coo, rng, dim, dtype)``: a small random edge list, a seeded
    generator for the dense operands, their width (``None`` = 1-D) and
    dtype."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    nnz = draw(st.integers(0, 20))
    edge_dst = draw(hnp.arrays(np.int64, nnz,
                               elements=st.integers(0, rows - 1)))
    edge_src = draw(hnp.arrays(np.int64, nnz,
                               elements=st.integers(0, cols - 1)))
    return (KernelCOO(edge_dst, edge_src, (rows, cols)),
            np.random.default_rng(draw(st.integers(0, 2 ** 16))),
            draw(st.sampled_from([None, 1, 3])),
            draw(st.sampled_from(FLOATS)))


def _dense(rng, rows, dim, dtype):
    shape = (rows,) if dim is None else (rows, dim)
    return rng.standard_normal(shape).astype(dtype)


def _columns(array):
    return array if array.ndim == 2 else array[:, None]


def _scatter(index, contribution, num_rows, dtype=None):
    """The specification: ``out[index[e]] += contribution[e]`` for
    ``e`` in list order."""
    out = np.zeros((num_rows, contribution.shape[1]),
                   dtype=dtype or contribution.dtype)
    np.add.at(out, index, contribution)
    return out


def _same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("reduce", ["sum", "mean"])
@pytest.mark.parametrize("op", ["mul", "copy_rhs"])
@settings(**SETTINGS)
@given(case=coo_cases(), values_dtype=st.sampled_from(FLOATS))
def test_gspmm_matches_the_scatter(backend, reduce, op, case,
                                   values_dtype):
    coo, rng, dim, dtype = case
    x = _dense(rng, coo.shape[1], dim, dtype)
    values = rng.standard_normal(coo.nnz).astype(values_dtype)
    upstream = _dense(rng, coo.shape[0], dim, dtype)
    dst, src = coo.edge_dst, coo.edge_src
    weights = values[:, None] if op == "mul" else 1
    counts = np.bincount(dst, minlength=coo.shape[0]).astype(dtype)
    counts[counts == 0] = 1

    x_t = Tensor(x.copy(), requires_grad=True)
    v_t = Tensor(values.copy(), requires_grad=True)
    if op == "mul" and not np.can_cast(values_dtype, dtype):
        with kernel_path(backend), \
                pytest.raises(KernelError, match="wider than"):
            gspmm(coo, x_t, values=v_t, op=op, reduce=reduce)
        return
    with kernel_path(backend):
        out = gspmm(coo, x_t, values=v_t, op=op, reduce=reduce)
        out.backward(upstream)

    expected = _scatter(dst, np.asarray(weights * _columns(x)[src]),
                        coo.shape[0], dtype)
    grad = _columns(upstream)
    if reduce == "mean":
        expected = expected / counts[:, None]
        grad = grad / counts[:, None]
    _same_bytes(out.data, expected.reshape(out.shape))
    x_grad = _scatter(src, np.asarray(weights * grad[dst]),
                      coo.shape[1], dtype)
    _same_bytes(x_t.grad, x_grad.reshape(x.shape))
    _same_bytes(v_t.grad, (grad[dst] * _columns(x)[src]).sum(axis=1)
                .astype(values_dtype))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(**SETTINGS)
@given(case=coo_cases())
def test_edge_softmax_matches_the_scatter(backend, case):
    coo, rng, _dim, dtype = case
    scores = rng.standard_normal(coo.nnz).astype(dtype)
    upstream = rng.standard_normal(coo.nnz).astype(dtype)
    dst, count = coo.edge_dst, coo.shape[0]

    s_t = Tensor(scores.copy(), requires_grad=True)
    with kernel_path(backend):
        probs = edge_softmax(coo, s_t)
        probs.backward(upstream)

    seg_max = np.full(count, -np.inf)
    np.maximum.at(seg_max, dst, scores)
    exp = np.exp(scores - seg_max[dst])
    seg_sum = np.zeros(count)
    np.add.at(seg_sum, dst, exp)
    seg_sum[seg_sum == 0] = 1.0
    expected = (exp / seg_sum[dst]).astype(dtype)
    _same_bytes(probs.data, expected)
    seg_dot = np.zeros(count)
    np.add.at(seg_dot, dst, upstream * expected)
    _same_bytes(s_t.grad,
                (expected * (upstream - seg_dot[dst])).astype(dtype))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("op", ["add", "mul", "dot"])
@settings(**SETTINGS)
@given(case=coo_cases())
def test_gsddmm_matches_the_scatter(backend, op, case):
    coo, rng, dim, dtype = case
    q = _dense(rng, coo.shape[0], dim, dtype)
    k = _dense(rng, coo.shape[1], dim, dtype)
    dst, src = coo.edge_dst, coo.edge_src
    lhs, rhs = _columns(q)[dst], _columns(k)[src]
    expected = lhs + rhs if op == "add" else lhs * rhs
    if op == "dot":
        expected = expected.sum(axis=1)
    elif dim is None:
        expected = expected[:, 0]
    upstream = rng.standard_normal(expected.shape).astype(dtype)

    q_t = Tensor(q.copy(), requires_grad=True)
    k_t = Tensor(k.copy(), requires_grad=True)
    with kernel_path(backend):
        out = gsddmm(coo, q_t, k_t, op=op)
        out.backward(upstream)

    _same_bytes(out.data, expected)
    grad = _columns(upstream)
    to_q = np.broadcast_to(grad, lhs.shape) if op == "add" \
        else grad * rhs
    to_k = np.broadcast_to(grad, rhs.shape) if op == "add" \
        else grad * lhs
    _same_bytes(q_t.grad,
                _scatter(dst, to_q, coo.shape[0]).reshape(q.shape))
    _same_bytes(k_t.grad,
                _scatter(src, to_k, coo.shape[1]).reshape(k.shape))


@settings(**SETTINGS)
@given(case=coo_cases())
def test_view_regroups_edges_stably(case):
    """The view is a stable regrouping — rows ascending, list order
    kept inside a row — and the *reference* kernel run over it equals
    the reference run over the list: the ordering argument itself,
    checked with no compiled kernel in the loop."""
    coo, rng, _dim, dtype = case
    view = coo.segments()
    assert coo.segments() is view
    assert sorted(view.order) == list(range(coo.nnz))
    regrouped = coo.edge_dst[view.order]
    assert np.all(np.diff(regrouped) >= 0)
    same_row = np.diff(regrouped) == 0
    assert np.all(np.diff(view.order)[same_row] > 0)
    assert np.array_equal(view.operator.edges().edge_dst, regrouped)
    assert np.array_equal(view.operator.indices,
                          coo.edge_src[view.order])
    assert np.array_equal(view.selection.indices, view.order)
    assert view.selection.shape == (coo.shape[0], coo.nnz)

    x = _dense(rng, coo.shape[1], 3, dtype)
    values = rng.standard_normal(coo.nnz).astype(np.float32)
    with reference_kernels():
        _same_bytes(
            gspmm_forward(view.operator, x, values=values[view.order]),
            gspmm_forward(coo, x, values=values))


@pytest.mark.parametrize("bound", [7, 1 << 16, (1 << 16) + 1, 1 << 20])
def test_narrowed_sort_is_the_same_permutation(bound):
    """Row ids that fit 16 bits are radix-sorted; a stable sort has
    one answer, so the permutation must not depend on the width."""
    from repro.kernels.adjacency import _stable_argsort
    ids = np.random.default_rng(bound).integers(0, bound, 5000)
    ids[:2] = 0, bound - 1
    assert np.array_equal(_stable_argsort(ids, bound),
                          np.argsort(ids, kind="stable"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_view_built_once_per_block(backend):
    """Two views per block (its edge list and the reversed list the
    backward routes through), however many heads, layers, backward
    passes and cached-subgraph replays consume them."""
    dataset = load_dataset("ogb-arxiv", scale=0.05)
    sampler = NeighborSampler((3, 3))
    rng = np.random.default_rng(0)
    model = build_model("gat", dataset.feature_dim,
                        dataset.num_classes, num_layers=2,
                        hidden_dim=8, rng=rng)
    seeds = dataset.train_ids[:16]
    subgraph = sampler.sample(dataset.graph, seeds, rng)
    features = dataset.features[subgraph.input_nodes]
    cache = EvalSubgraphCache()
    builds = []
    install = KernelCOO._install_segments

    def counted(edges, order, indptr):
        builds.append(edges)
        install(edges, order, indptr)

    with kernel_path(backend), pytest.MonkeyPatch.context() as patch:
        patch.setattr(KernelCOO, "_install_segments", counted)
        for _step in range(3):
            loss = softmax_cross_entropy(
                model.forward(subgraph, features),
                dataset.labels[subgraph.seeds])
            loss.backward()
        assert len(builds) == 2 * len(subgraph.blocks)

        evaluate_model(model, dataset, dataset.val_ids[:32], sampler,
                       np.random.default_rng(1), batch_size=16,
                       cache=cache, cache_token=1)
        built = len(builds)
        before = PERF.snapshot()
        for _replay in range(3):
            evaluate_model(model, dataset, dataset.val_ids[:32],
                           sampler, np.random.default_rng(1),
                           batch_size=16, cache=cache, cache_token=1)
        delta = PERF.delta(before)
        assert delta.get("eval_subgraph_hits", 0) == 3
        assert len(builds) == built
