"""The shipped tape against the one it replaced (``_tape_oracle.py``):
owned gradients, the fused affine node, the working-precision dropout
mask and the rank-1 input gradient must reproduce the old tape's bytes
— forward values, every gradient, the dropout rng stream — on generated
layers and on the graph shapes an ownership rule can silently get
wrong.  Every comparison is ``tobytes()``; only the numeric gradcheck at
the end is approximate.

That a K = 1 GEMM equals the broadcast product, and that ``out += t``
equals ``out + t``, are properties of the installed numpy / BLAS: run
this file after any upgrade of either.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.nn import (Adam, GATConv, GCNConv, Linear, SAGEConv, Tensor,
                      build_model, softmax_cross_entropy)
from repro.sampling import NeighborSampler, build_block

from ._tape_oracle import parent_tape
from .test_tensor import numeric_grad

DTYPES = st.sampled_from([np.float32, np.float64])
SEEDS = st.integers(0, 2 ** 16)


def snapshot(*arrays):
    """Dtype, shape and bytes of each array (``None`` stays ``None``)."""
    return [None if a is None else
            (a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())
            for a in arrays]


def on_both_tapes(build):
    """``build()``'s snapshot on the shipped tape and on the oracle's."""
    shipped = build()
    with parent_tape():
        oracle = build()
    return shipped, oracle


def randomize(module, dtype, rng):
    """Every parameter in ``dtype`` and away from its zero / symmetric
    initial value, so a dropped bias add or a swapped weight shows."""
    for param in module.parameters():
        param.data = rng.standard_normal(param.data.shape).astype(dtype)


def random_block(rng, num_dst, num_edges, universe=40):
    dst_nodes = rng.choice(universe, size=num_dst, replace=False)
    return build_block(dst_nodes, rng.choice(dst_nodes, size=num_edges),
                       rng.choice(universe, size=num_edges))


# ----------------------------------------------------------------------
# One affine node per layer == the composed expression
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(rows=st.sampled_from([0, 1, 2, 17, 64]),
       d_in=st.sampled_from([1, 7, 16, 33]),
       d_out=st.sampled_from([1, 5, 16, 40]),
       dtype=DTYPES, bias=st.booleans(), input_grad=st.booleans(),
       seed=SEEDS)
def test_linear_is_the_composed_expression(rows, d_in, d_out, dtype, bias,
                                           input_grad, seed):
    def build():
        rng = np.random.default_rng(seed)
        layer = Linear(d_in, d_out, rng, bias=bias)
        randomize(layer, dtype, rng)
        x = Tensor(rng.standard_normal((rows, d_in)).astype(dtype),
                   requires_grad=input_grad)
        out = layer.forward(x)
        out.backward(rng.standard_normal(out.shape).astype(dtype))
        return snapshot(out.data, x.grad,
                        *(p.grad for p in layer.parameters()))

    shipped, oracle = on_both_tapes(build)
    assert shipped == oracle
    assert shipped[0][:2] == (np.dtype(dtype).str, (rows, d_out))


def _conv(kind, d_in, d_out, rng):
    if kind == "gcn":
        return GCNConv(d_in, d_out, rng)
    if kind == "gat":
        # Two heads of width 1 when d_out == 2: every matmul of the
        # attention scores is then a (1, 1) right operand.
        return GATConv(d_in, d_out, rng, heads=2 if d_out % 2 == 0 else 1)
    return SAGEConv(d_in, d_out, rng, normalize=kind == "sage-l2")


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["gcn", "sage", "sage-l2", "gat"]),
       num_dst=st.sampled_from([1, 2, 9]),
       num_edges=st.sampled_from([0, 1, 30]),
       d_in=st.sampled_from([1, 7, 16]),
       d_out=st.sampled_from([1, 2, 5, 16]),
       dtype=DTYPES, seed=SEEDS)
# Once seen failing only in a particular test order; pinned so every
# run checks it.
@example(kind="gat", num_dst=1, num_edges=30, d_in=1, d_out=5,
         dtype=np.float32, seed=0)
def test_convs_are_the_composed_expression(kind, num_dst, num_edges, d_in,
                                           d_out, dtype, seed):
    def build():
        rng = np.random.default_rng(seed)
        conv = _conv(kind, d_in, d_out, rng)
        randomize(conv, dtype, rng)
        block = random_block(rng, num_dst, num_edges)
        h = Tensor(rng.standard_normal((block.num_src, d_in))
                   .astype(dtype), requires_grad=True)
        out = conv.forward_block(block, h)
        out.backward(rng.standard_normal(out.shape).astype(dtype))
        return snapshot(out.data, h.grad,
                        *(p.grad for p in conv.parameters()))

    shipped, oracle = on_both_tapes(build)
    assert shipped == oracle


# ----------------------------------------------------------------------
# Dropout: same mask, same rng stream
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([(0, 8), (1, 1), (5,), (33, 7), (64, 16)]),
       p=st.sampled_from([0.1, 0.15, 0.45, 0.5, 0.9]), dtype=DTYPES,
       seed=SEEDS)
def test_dropout_mask_and_rng_stream(shape, p, dtype, seed):
    def build():
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal(shape).astype(dtype),
                   requires_grad=True)
        out = x.dropout(p, rng)
        out.backward(rng.standard_normal(shape).astype(dtype))
        return snapshot(out.data, x.grad), rng.bit_generator.state

    shipped, oracle = on_both_tapes(build)
    assert shipped == oracle
    assert shipped[0][0][0] == np.dtype(dtype).str


# ----------------------------------------------------------------------
# Whole models, four workers accumulating into one param.grad
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.1)


@pytest.mark.parametrize("name", ["gcn", "graphsage", "gat"])
def test_four_workers_share_one_gradient(data, name):
    """The engine's synchronous step: every worker backpropagates a
    scaled loss into the shared parameters, nothing zeroed in between,
    dropout drawing from the model's one rng."""
    def build():
        rng = np.random.default_rng(5)
        model = build_model(name, data.feature_dim, data.num_classes,
                            rng=rng, dropout=0.3)
        sampler = NeighborSampler((4, 3))
        losses = []
        for worker in range(4):
            seeds = data.train_ids[worker * 8:(worker + 1) * 8]
            subgraph = sampler.sample(data.graph, seeds, rng)
            logits = model.forward(
                subgraph, data.features[subgraph.input_nodes])
            loss = softmax_cross_entropy(logits, data.labels[seeds])
            (loss * 0.25).backward()
            losses.append(loss.data)
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        Adam(model.parameters(), lr=0.01).step()
        return (snapshot(*losses, *grads,
                         *(p.data for p in model.parameters())),
                model.rng_state())

    shipped, oracle = on_both_tapes(build)
    assert shipped == oracle


# ----------------------------------------------------------------------
# Aliasing: what an ownership rule can silently get wrong
# ----------------------------------------------------------------------
def _branches(d, rng, dtype):
    """Ops that consume ``h`` (n, d) and give (n, d) back, each
    returning every tensor it made, result last; between them they
    cover every pass-through site and the fused node."""
    first, second = Linear(d, d, rng), Linear(2 * d, d, rng, bias=False)
    narrow, widen = Linear(d, 1, rng), Linear(1, d, rng)
    for layer in (first, second, narrow, widen):
        randomize(layer, dtype, rng)
    scale = Tensor(rng.standard_normal(d).astype(dtype),
                   requires_grad=True)
    params = [scale] + [p for layer in (first, second, narrow, widen)
                        for p in layer.parameters()]

    def chain(*ops):
        def run(h):
            made = [h]
            for op in ops:
                made.append(op(made[-1]))
            return made[1:]
        return run

    return params, [
        chain(first.forward),
        chain(lambda h: h + h),
        chain(lambda h: h * h),
        chain(lambda h: h * scale, lambda t: t + scale),
        chain(lambda h: h.reshape(-1), lambda t: t.reshape(-1, d)),
        chain(lambda h: h.concat(h), second.forward),
        chain(lambda h: (h * scale).concat(h), second.forward),
        chain(narrow.forward, widen.forward),          # rank-1 path
    ]


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.integers(0, 7), min_size=2, max_size=4),
       rows=st.sampled_from([1, 3, 12]), d=st.sampled_from([1, 4, 9]),
       dtype=DTYPES, seed=SEEDS)
def test_diamonds(picks, rows, d, dtype, seed):
    """A leaf and an intermediate tensor each consumed by 2-4 ops; every
    tensor on the tape is held and compared, so a gradient that was
    added into after being handed on shows."""
    def build():
        rng = np.random.default_rng(seed)
        params, branches = _branches(d, rng, dtype)
        x = Tensor(rng.standard_normal((rows, d)).astype(dtype),
                   requires_grad=True)
        h = x.relu()
        made = [branches[i](h if n % 2 else x)
                for n, i in enumerate(picks)]
        made += [branches[i](h) for i in picks[:2]]
        sums = [made[0][-1]]
        for tensors in made[1:]:
            sums.append(sums[-1] + tensors[-1])
        upstream = rng.standard_normal(sums[-1].shape).astype(dtype)
        kept = upstream.copy()
        sums[-1].backward(upstream)
        assert upstream.tobytes() == kept.tobytes()
        held = [x, h, *sums[1:], *(t for tensors in made for t in tensors)]
        return held, snapshot(sums[-1].data, *(t.grad for t in held),
                              *(p.grad for p in params))

    (held, shipped), (_held, oracle) = on_both_tapes(build)
    assert shipped == oracle
    # Owned means owned: no two tensors' gradients share a buffer.
    for one, other in itertools.combinations(held, 2):
        assert not np.shares_memory(one.grad, other.grad)


def test_upstream_gradient_stays_the_callers():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    for root in (x, x + 0.0, x.reshape(3, 2), x.concat(x)):
        x.grad = None
        upstream = np.full(root.shape, 2.0)
        root.backward(upstream)
        assert not np.shares_memory(root.grad, upstream)
        assert not np.shares_memory(x.grad, upstream)
        x.grad += 1.0
        root.grad += 1.0
        assert np.all(upstream == 2.0)


def test_bias_of_the_output_shape_gets_its_own_gradient():
    """Nothing to unbroadcast, so the node's gradient would pass
    through to the bias as is."""
    rng = np.random.default_rng(3)
    x, weight, bias = (Tensor(rng.standard_normal(shape),
                              requires_grad=True)
                       for shape in [(3, 2), (2, 4), (3, 4)])
    out = Tensor.affine((x, weight), bias=bias)
    out.backward(rng.standard_normal((3, 4)))
    assert bias.grad.tobytes() == out.grad.tobytes()
    assert not np.shares_memory(bias.grad, out.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_parameter_shared_by_two_layers(dtype):
    def build():
        rng = np.random.default_rng(11)
        inner, outer = Linear(6, 6, rng), Linear(6, 6, rng)
        randomize(inner, dtype, rng)
        outer.weight, outer.bias = inner.weight, inner.bias
        x = Tensor(rng.standard_normal((5, 6)).astype(dtype),
                   requires_grad=True)
        out = outer.forward(inner.forward(x).relu())
        out.backward(rng.standard_normal(out.shape).astype(dtype))
        return snapshot(out.data, x.grad, inner.weight.grad,
                        inner.bias.grad)

    shipped, oracle = on_both_tapes(build)
    assert shipped == oracle


# ----------------------------------------------------------------------
# And the gradients are right, not only equal: weighted-loss gradcheck
# ----------------------------------------------------------------------
@pytest.mark.parametrize("d_out", [1, 3])
@pytest.mark.parametrize("bias", [True, False])
def test_affine_weighted_loss_gradcheck(d_out, bias):
    """A non-uniform upstream gradient through a two-term affine node,
    ``d_out = 1`` taking the rank-1 input gradient."""
    rng = np.random.default_rng(17)
    arrays = [rng.standard_normal(shape) for shape in
              [(4, 3), (3, d_out), (4, 2), (2, d_out), (d_out,)]]
    weights = rng.standard_normal((4, d_out))

    def loss(x0, w0, x1, w1, b):
        out = Tensor.affine((x0, w0), (x1, w1),
                            bias=b if bias else None)
        return (out * Tensor(weights)).sum()

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss(*tensors).backward()
    for i, tensor in enumerate(tensors[:None if bias else -1]):
        def at(value):
            swapped = [Tensor(value) if j == i else Tensor(a)
                       for j, a in enumerate(arrays)]
            return float(loss(*swapped).data)
        numeric = numeric_grad(at, arrays[i].copy())
        assert np.allclose(tensor.grad, numeric, atol=1e-6, rtol=1e-6)
