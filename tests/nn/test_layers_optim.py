"""Unit tests for layers, models, losses and optimizers."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.graph import load_dataset
from repro.kernels import normalized_block_adjacency
from repro.nn import (GCN, MLP, Adam, GraphSAGE, Linear, Tensor,
                      accuracy, build_model, no_grad, softmax,
                      softmax_cross_entropy, zeros)
from repro.sampling import NeighborSampler


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


@pytest.fixture(scope="module")
def subgraph(dataset):
    sampler = NeighborSampler((5, 5))
    return sampler.sample(dataset.graph, dataset.train_ids[:32],
                          np.random.default_rng(0))


class TestLinearMLP:
    def test_linear_shapes(self):
        layer = Linear(8, 4, np.random.default_rng(0))
        out = layer.forward(Tensor(np.ones((3, 8))))
        assert out.shape == (3, 4)

    def test_linear_no_bias(self):
        layer = Linear(8, 4, np.random.default_rng(0), bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_mlp_depth(self):
        mlp = MLP([8, 16, 4], np.random.default_rng(0))
        assert len(mlp.layers) == 2
        out = mlp.forward(Tensor(np.ones((3, 8))))
        assert out.shape == (3, 4)

    def test_mlp_too_shallow(self):
        with pytest.raises(TrainingError):
            MLP([8], np.random.default_rng(0))

    def test_parameters_collected_recursively(self):
        mlp = MLP([8, 16, 4], np.random.default_rng(0))
        assert len(mlp.parameters()) == 4  # 2 x (weight + bias)

    def test_state_dict_roundtrip(self):
        rng = np.random.default_rng(0)
        a = MLP([4, 8, 2], rng)
        b = MLP([4, 8, 2], np.random.default_rng(1))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((2, 4)))
        assert np.allclose(a.forward(x).data, b.forward(x).data)

    def test_state_dict_shape_mismatch(self):
        a = MLP([4, 8, 2], np.random.default_rng(0))
        b = MLP([4, 4, 2], np.random.default_rng(0))
        with pytest.raises(TrainingError):
            b.load_state_dict(a.state_dict())


class TestAggregationMatrix:
    def test_rows_sum_to_one(self, subgraph):
        for block in subgraph.blocks:
            matrix = normalized_block_adjacency(block)
            sums = np.asarray(matrix.sum(axis=1)).ravel()
            assert np.allclose(sums[sums > 0], 1.0, atol=1e-5)

    def test_shape(self, subgraph):
        block = subgraph.blocks[0]
        matrix = normalized_block_adjacency(block)
        assert matrix.shape == (block.num_dst, block.num_src)

    def test_self_loops_make_isolated_rows_nonzero(self, subgraph):
        block = subgraph.blocks[0]
        matrix = normalized_block_adjacency(block, self_loops=True)
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.all(sums > 0)


class TestModels:
    def test_gcn_forward_shape(self, dataset, subgraph):
        model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                            rng=np.random.default_rng(0))
        logits = model.forward(subgraph, dataset.features[
            subgraph.input_nodes])
        assert logits.shape == (len(subgraph.seeds), dataset.num_classes)

    def test_sage_forward_shape(self, dataset, subgraph):
        model = build_model("graphsage", dataset.feature_dim,
                            dataset.num_classes,
                            rng=np.random.default_rng(0))
        logits = model.forward(subgraph, dataset.features[
            subgraph.input_nodes])
        assert logits.shape == (len(subgraph.seeds), dataset.num_classes)

    def test_unknown_model(self):
        with pytest.raises(TrainingError):
            build_model("transformer", 8, 2)

    def test_layer_mismatch_rejected(self, dataset, subgraph):
        model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                            num_layers=3, rng=np.random.default_rng(0))
        with pytest.raises(TrainingError):
            model.forward(subgraph, dataset.features[subgraph.input_nodes])

    def test_training_reduces_loss(self, dataset, subgraph):
        model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                            rng=np.random.default_rng(0))
        opt = Adam(model.parameters(), lr=0.01)
        feats = dataset.features[subgraph.input_nodes]
        labels = dataset.labels[subgraph.seeds]
        first = None
        for _step in range(20):
            logits = model.forward(subgraph, feats)
            loss = softmax_cross_entropy(logits, labels)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first

    def test_eval_mode_is_deterministic(self, dataset, subgraph):
        model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                            rng=np.random.default_rng(0), dropout=0.5)
        feats = dataset.features[subgraph.input_nodes]
        with no_grad():
            a = model.forward(subgraph, feats).data
            b = model.forward(subgraph, feats).data
        assert np.array_equal(a, b)

    def test_gcn_class_alias(self):
        assert build_model("sage", 4, 2).__class__ is GraphSAGE
        assert build_model("GCN", 4, 2).__class__ is GCN

    def test_sage_normalize_outputs_unit_rows(self, dataset, subgraph):
        from repro.nn import SAGEConv, Tensor
        conv = SAGEConv(dataset.feature_dim, 16,
                        np.random.default_rng(0), normalize=True)
        block = subgraph.blocks[0]
        out = conv.forward_block(
            block, Tensor(dataset.features[block.src_nodes]))
        norms = np.linalg.norm(out.data, axis=1)
        assert np.allclose(norms[norms > 1e-6], 1.0, atol=1e-4)

    def test_sage_normalized_still_trains(self, dataset, subgraph):
        from repro.nn import SAGEConv, Tensor
        conv = SAGEConv(dataset.feature_dim, 8,
                        np.random.default_rng(0), normalize=True)
        block = subgraph.blocks[0]
        h = Tensor(dataset.features[block.src_nodes])
        out = conv.forward_block(block, h)
        out.sum().backward()
        assert conv.weight_self.grad is not None
        assert np.all(np.isfinite(conv.weight_self.grad))


class TestLossMetrics:
    def test_softmax_normalizes(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(probs.sum(), 1.0)

    def test_softmax_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(probs, 0.5)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-5

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(TrainingError):
            softmax_cross_entropy(np.ones((2, 3)), np.array([0]))

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy(np.zeros((0, 2)), np.array([])) == 0.0


class TestOptimizers:
    def quadratic(self, opt_cls, **kwargs):
        x = zeros(2)
        x.data = np.array([5.0, -3.0], dtype=np.float32)
        opt = opt_cls([x], **kwargs)
        for _step in range(200):
            loss = (x * x).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        return x.data

    def test_adam_converges(self):
        final = self.quadratic(Adam, lr=0.1)
        assert np.abs(final).max() < 1e-2

    def test_weight_decay_shrinks(self):
        x = zeros(1)
        x.data = np.array([1.0], dtype=np.float32)
        opt = Adam([x], lr=0.1, weight_decay=1.0)
        # Zero-gradient step: only decay acts, and Adam's first step
        # moves each coordinate by lr.
        x.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert x.data[0] == pytest.approx(0.9)

    def test_bad_lr(self):
        with pytest.raises(TrainingError):
            Adam([zeros(1)], lr=0)

    def test_empty_params(self):
        with pytest.raises(TrainingError):
            Adam([], lr=0.1)

    def test_step_skips_missing_grads(self):
        x = zeros(2)
        opt = Adam([x], lr=0.1)
        opt.step()  # no grad — should be a no-op, not an error
        assert np.allclose(x.data, 0.0)
