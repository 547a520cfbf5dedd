"""One inference switch: dropout draws if and only if a tape is recorded.

There is no train / eval mode.  Under ``no_grad`` ``Tensor.dropout``
hands back its input object and leaves the rng where it was; while a
tape is recorded it is the training-mode dropout it always was — the
same mask bytes and the same rng advance.  Every inference entry point
(``ServeEngine.run``, ``FleetEngine.run``, ``evaluate_model``, the
``LayerwiseEmbeddings`` build, ``cluster_dataset`` and link-prediction
evaluation) runs a ``dropout=0.5`` model without drawing, and leaves the
model's rng state and the tape flag as it found them.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.core.trainer import evaluate_model
from repro.fleet import FleetEngine
from repro.nn import Tensor, build_model, no_grad
from repro.nn import tensor as tensor_module
from repro.sampling import NeighborSampler
from repro.serve import LayerwiseEmbeddings, LoadGenerator, ServeEngine
from repro.tasks import cluster_dataset
from repro.tasks.linkpred import _evaluate_auc, split_edges


def training_mode_dropout(data, p, rng):
    """The bytes of ``Tensor.dropout(p, rng, training=True)`` as it
    shipped with a train / eval mode."""
    if p == 0.0:
        return data
    dtype = data.dtype
    keep = np.multiply(rng.random(data.shape) >= p,
                       dtype.type(1.0 / (1.0 - p)), dtype=dtype)
    return data * keep


class Inside(Exception):
    """Raised inside the contexts to check that they unwind."""


@settings(max_examples=60, deadline=None)
@given(p=st.one_of(st.sampled_from([0.0, 0.5]),
                   st.floats(0.0, 0.99, allow_nan=False)),
       shape=st.tuples(st.integers(1, 9), st.integers(1, 6)),
       dtype=st.sampled_from([np.float32, np.float64]),
       depth=st.integers(1, 3), raise_inside=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_dropout_draws_iff_a_tape_is_recorded(p, shape, dtype, depth,
                                              raise_inside, seed):
    data = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    x = Tensor(data, requires_grad=True)
    rng = np.random.default_rng(seed + 1)
    before = rng.bit_generator.state

    with contextlib.suppress(Inside):
        with contextlib.ExitStack() as stack:
            for _ in range(depth):
                stack.enter_context(no_grad())
                assert x.dropout(p, rng) is x
                assert rng.bit_generator.state == before
            if raise_inside:
                raise Inside
    assert tensor_module._taping

    twin = np.random.default_rng(seed + 1)
    out = x.dropout(p, rng)
    expected = training_mode_dropout(data, p, twin)
    assert out.data.dtype == dtype
    assert out.data.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state
    if p > 0.0:
        assert out._parents == (x,)


# ----------------------------------------------------------------------
# Every inference entry point: no draw, rng and flag as found
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.1)


@pytest.fixture(scope="module")
def trace(data):
    return LoadGenerator(data.test_ids, rate=2000.0, num_requests=40,
                         seed=1, skew=0.8).generate()


def _serve(model, data, trace):
    ServeEngine(data, model, mode="sampled", fanout=(4, 4),
                seed=0).run(trace)


def _fleet(model, data, trace):
    FleetEngine(data, model, partition="hash", num_replicas=2,
                mode="sampled", fanout=(4, 4), seed=0).run(trace)


def _evaluate(model, data, _trace):
    evaluate_model(model, data, data.val_ids, NeighborSampler((4, 4)),
                   np.random.default_rng(0), batch_size=16)


def _layerwise(model, data, _trace):
    LayerwiseEmbeddings(model, data.graph, data.features)


def _cluster(model, data, _trace):
    cluster_dataset(data, model, NeighborSampler((4, 4)),
                    rng=np.random.default_rng(0), batch_size=64)


def _linkpred(model, data, _trace):
    rng = np.random.default_rng(0)
    split = split_edges(data.graph, rng)
    _evaluate_auc(model, data, split, NeighborSampler((4, 4)),
                  split.val_edges, rng)


ENTRY_POINTS = {"serve": _serve, "fleet": _fleet, "evaluate": _evaluate,
                "layerwise": _layerwise, "cluster": _cluster,
                "linkpred": _linkpred}


@pytest.mark.parametrize("outer", [False, True], ids=["taping", "no_grad"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_draws_nothing_and_restores_the_flag(
        data, trace, entry, outer, monkeypatch):
    model = build_model("graphsage", data.feature_dim, data.num_classes,
                        hidden_dim=16, rng=np.random.default_rng(5),
                        dropout=0.5)
    seen = []
    dropout = Tensor.dropout

    def spy(self, p, rng):
        seen.append(tensor_module._taping)
        return dropout(self, p, rng)

    monkeypatch.setattr(Tensor, "dropout", spy)
    rng_before = model.rng_state()
    with no_grad() if outer else contextlib.nullcontext():
        flag_before = tensor_module._taping
        ENTRY_POINTS[entry](model, data, trace)
        assert tensor_module._taping is flag_before
    assert tensor_module._taping
    assert not any(seen)
    assert model.rng_state() == rng_before
