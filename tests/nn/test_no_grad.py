"""Inference without a tape: under ``no_grad`` every op that ends in
``Tensor._result`` — the tensor ops, the fused losses and the
differentiable kernels — computes the same bytes and records nothing
(no parent tuple, no kept backward closure); dropout, the one op whose
inference value differs, hands back its input.  The flag is restored
after nesting and after an exception, the two inference entry points
(``serve.ServeEngine.run``, ``core.trainer.evaluate_model``) leave it
as they found it (every inference entry point is held to that
in ``test_dropout_switch.py``), and training after an untaped pass
gets the gradients of training that never entered the context.
"""

import contextlib

import numpy as np
import pytest

from repro import load_dataset
from repro.core.trainer import evaluate_model
from repro.kernels import (KernelCOO, KernelCSR, autograd, edge_softmax,
                           gat_attention, gsddmm, gspmm)
from repro.nn import (Tensor, binary_cross_entropy_with_logits,
                      build_model, no_grad, softmax_cross_entropy)
from repro.nn import tensor as tensor_module
from repro.sampling import NeighborSampler
from repro.serve import LoadGenerator, ServeEngine

CSR = KernelCSR(np.array([0, 2, 3, 5, 6]), np.array([0, 1, 2, 1, 3, 0]),
                np.ones(6), (4, 4))
COO = KernelCOO(np.array([0, 0, 1, 2, 2, 3]), np.array([0, 1, 2, 1, 3, 0]),
                (4, 4))


class Operands:
    """Fresh gradient-tracking operands, the same bytes every time."""

    def __init__(self):
        rng = np.random.default_rng(11)

        def tracked(*shape, positive=False):
            data = rng.random(shape) + 0.5 if positive \
                else rng.standard_normal(shape)
            return Tensor(data, requires_grad=True)

        self.x, self.y = tracked(4, 3), tracked(4, 3)
        self.w, self.b = tracked(3, 2), tracked(2)
        self.pos = tracked(4, 3, positive=True)
        self.edges = tracked(6)
        self.attn = tracked(3, 1)


#: Every op of ``Tensor`` by attribute name, plus the losses and kernels.
OPS = {
    "__add__": lambda t: t.x + t.y,
    "__radd__": lambda t: 1.0 + t.x,
    "__neg__": lambda t: -t.x,
    "__sub__": lambda t: t.x - t.y,
    "__mul__": lambda t: t.x * t.y,
    "__rmul__": lambda t: 2.0 * t.x,
    "__truediv__": lambda t: t.x / t.pos,
    "affine": lambda t: Tensor.affine((t.x, t.w), bias=t.b),
    "matmul": lambda t: t.x.matmul(t.w),
    "__matmul__": lambda t: t.x @ t.w,
    "relu": lambda t: t.x.relu(),
    "leaky_relu": lambda t: t.x.leaky_relu(),
    "dropout": lambda t: t.x.dropout(0.5, np.random.default_rng(0)),
    "gather_rows": lambda t: t.x.gather_rows([0, 2, 2]),
    "leading_rows": lambda t: t.x.leading_rows(2),
    "concat": lambda t: t.x.concat(t.y),
    "log": lambda t: t.pos.log(),
    "l2_normalize_rows": lambda t: t.x.l2_normalize_rows(),
    "reshape": lambda t: t.x.reshape(3, 4),
    "mask_rows": lambda t: t.x.mask_rows([1, 3], np.zeros((4, 3))),
    "assemble_rows": lambda t: Tensor.assemble_rows(
        [t.x, t.y], [np.arange(4), np.arange(4, 8)], 8),
    "sum": lambda t: t.x.sum(),
    "mean": lambda t: t.x.mean(),
    "softmax_cross_entropy": lambda t: softmax_cross_entropy(
        t.x, [0, 1, 2, 0]),
    "binary_cross_entropy_with_logits": lambda t:
        binary_cross_entropy_with_logits(t.x, np.ones((4, 3))),
    "gspmm (csr)": lambda t: gspmm(CSR, t.x, values=t.edges),
    "gspmm (coo)": lambda t: gspmm(COO, t.x, values=t.edges),
    "gsddmm": lambda t: gsddmm(COO, t.x, t.y, op="dot"),
    "edge_softmax": lambda t: edge_softmax(COO, t.edges),
    "gat_attention": lambda t: gat_attention(COO, t.x, t.attn, t.attn, 0.2),
}

#: ``Tensor`` callables that are not ops.
NOT_OPS = {"__init__", "__len__", "__repr__", "item", "numpy",
           "_accumulate", "backward", "_result"}


def test_the_table_names_every_tensor_op():
    """Every ``Tensor`` op and every differentiable kernel (a table key
    may add a `` (layout)`` suffix)."""
    callables = {name for name, value in vars(Tensor).items()
                 if callable(value)}
    assert callables - NOT_OPS <= set(OPS), callables - NOT_OPS - set(OPS)
    named = {name.split(" ")[0] for name in OPS}
    assert set(autograd.__all__) <= named, set(autograd.__all__) - named


@pytest.mark.parametrize("name", sorted(OPS))
def test_no_op_records_a_tape_under_no_grad(name):
    taped = OPS[name](Operands())
    assert taped._parents and taped._backward is not None
    operands = Operands()
    with no_grad():
        untaped = OPS[name](operands)
    if name == "dropout":
        # Inference dropout is the identity: the input, drawing nothing.
        assert untaped is operands.x
        return
    assert untaped._parents == ()
    assert untaped._backward is None
    assert not untaped.requires_grad
    assert (untaped.data.dtype, untaped.data.shape) \
        == (taped.data.dtype, taped.data.shape)
    assert untaped.data.tobytes() == taped.data.tobytes()


def test_flag_restored_after_nesting():
    assert tensor_module._taping
    with no_grad():
        with no_grad():
            assert not tensor_module._taping
        assert not tensor_module._taping
    assert tensor_module._taping


def test_flag_restored_after_an_exception():
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    assert tensor_module._taping
    x = Tensor(np.ones(3), requires_grad=True)
    assert (x * x)._parents == (x, x)


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.1)


def model_for(data, seed=5):
    return build_model("graphsage", data.feature_dim, data.num_classes,
                       hidden_dim=16, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("outer", [False, True], ids=["taping", "no_grad"])
def test_eval_mode_enters_no_grad_and_restores_the_flag(data, outer,
                                                        monkeypatch):
    """Serving's inference mode is ``no_grad`` itself: ``ServeEngine.run``
    forwards untaped and restores the flag, also when the forward
    raises."""
    model = model_for(data)
    trace = LoadGenerator(data.test_ids, rate=2000.0, num_requests=20,
                          seed=1).generate()
    seen = []
    forward = type(model).forward

    def spy(self, *args):
        seen.append(tensor_module._taping)
        return forward(self, *args)

    def serve():
        ServeEngine(data, model, mode="sampled", fanout=(4, 4),
                    seed=0).run(trace)

    monkeypatch.setattr(type(model), "forward", spy)
    with no_grad() if outer else contextlib.nullcontext():
        before = tensor_module._taping
        serve()
        assert seen and not any(seen)
        assert tensor_module._taping is before

        def raising(self, *args):
            seen.append(tensor_module._taping)
            raise RuntimeError("inside")

        monkeypatch.setattr(type(model), "forward", raising)
        with pytest.raises(RuntimeError):
            serve()
        assert not seen[-1]
        assert tensor_module._taping is before
    assert tensor_module._taping


@pytest.mark.parametrize("outer", [False, True], ids=["taping", "no_grad"])
def test_evaluate_model_forwards_untaped_and_restores_the_flag(
        data, outer, monkeypatch):
    model = model_for(data)
    seen = []
    forward = type(model).forward

    def spy(self, *args):
        seen.append(tensor_module._taping)
        return forward(self, *args)

    monkeypatch.setattr(type(model), "forward", spy)
    with no_grad() if outer else contextlib.nullcontext():
        before = tensor_module._taping
        evaluate_model(model, data, data.val_ids, NeighborSampler((5, 5)),
                       np.random.default_rng(0), batch_size=16)
        assert tensor_module._taping is before
    assert seen and not any(seen)
    assert tensor_module._taping


def test_gradients_after_the_context_equal_a_run_that_never_entered_it(
        data):
    subgraph = NeighborSampler((5, 5)).sample(
        data.graph, data.train_ids[:32], np.random.default_rng(1))
    features = data.features[subgraph.input_nodes]

    def gradients(untaped_first):
        model = model_for(data)
        if untaped_first:
            with no_grad():
                model.forward(subgraph, features)
        loss = softmax_cross_entropy(model.forward(subgraph, features),
                                     data.labels[subgraph.seeds])
        loss.backward()
        return [(p.grad.dtype.str, p.grad.tobytes())
                for p in model.parameters()]

    assert gradients(True) == gradients(False)
