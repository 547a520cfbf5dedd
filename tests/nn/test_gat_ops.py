"""Unit tests for the GAT layer and its supporting autograd ops."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.graph import load_dataset
from repro.kernels import block_attention_edges
from repro.nn import GAT, Adam, GATConv, Tensor, build_model
from repro.nn.loss import softmax_cross_entropy
from repro.sampling import NeighborSampler

from ._tensor_oracle import edge_aggregate, segment_softmax
from .test_tensor import check_op, numeric_grad


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


@pytest.fixture(scope="module")
def subgraph(dataset):
    sampler = NeighborSampler((4, 4))
    return sampler.sample(dataset.graph, dataset.train_ids[:24],
                          np.random.default_rng(0))


class TestNewOps:
    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x.reshape(-1)
        assert y.shape == (6,)
        y.sum().backward()
        assert x.grad.shape == (2, 3)
        assert np.allclose(x.grad, 1.0)

    def test_leaky_relu_values(self):
        x = Tensor(np.array([-2.0, 3.0]))
        out = x.leaky_relu(0.1)
        assert np.allclose(out.data, [-0.2, 3.0])

    def test_leaky_relu_gradcheck(self):
        check_op(lambda x: x.leaky_relu(0.2).sum(), (4, 3), seed=21)

    def test_segment_softmax_normalizes_per_segment(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        segments = np.array([0, 0, 1, 1, 1])
        probs = segment_softmax(x, segments).data
        assert probs[:2].sum() == pytest.approx(1.0)
        assert probs[2:].sum() == pytest.approx(1.0)

    def test_segment_softmax_single_element_segment(self):
        x = Tensor(np.array([7.0]))
        assert segment_softmax(x, [0]).data[0] == pytest.approx(1.0)

    def test_segment_softmax_gradcheck(self):
        segments = np.array([0, 0, 1, 1, 2])
        check_op(lambda x: (segment_softmax(x, segments)
                            * Tensor(np.arange(5.0))).sum(),
                 (5,), seed=22)

    def test_segment_softmax_rejects_matrix(self):
        with pytest.raises(TrainingError):
            segment_softmax(Tensor(np.ones((2, 2))), [0, 1])

    def test_edge_aggregate_forward(self):
        sources = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        weights = Tensor(np.array([0.5, 0.5, 1.0]))
        out = edge_aggregate(sources, weights, edge_dst=[0, 0, 1],
                             edge_src=[0, 1, 2], num_dst=2)
        assert np.allclose(out.data, [[0.5, 0.5], [2.0, 2.0]])

    def test_edge_aggregate_source_gradcheck(self):
        weights = Tensor(np.array([0.3, 0.7, 1.0, 0.2]))
        edge_dst = [0, 0, 1, 1]
        edge_src = [0, 1, 2, 0]
        check_op(lambda x: edge_aggregate(
            x, weights, edge_dst, edge_src, 2).sum(), (3, 2), seed=23)

    def test_edge_aggregate_weight_grad(self):
        rng = np.random.default_rng(24)
        source_data = rng.normal(size=(3, 2))
        edge_dst = [0, 1, 1]
        edge_src = [1, 0, 2]

        def build(w):
            return edge_aggregate(
                Tensor(source_data), w, edge_dst, edge_src, 2).sum()

        w = Tensor(rng.normal(size=3).astype(np.float64),
                   requires_grad=True)
        build(w).backward()
        numeric = numeric_grad(lambda arr: float(build(Tensor(arr)).data),
                               w.data.copy())
        assert np.allclose(w.grad, numeric, atol=2e-2)

    def test_edge_aggregate_misaligned(self):
        with pytest.raises(TrainingError):
            edge_aggregate(Tensor(np.ones((2, 2))),
                           Tensor(np.ones(3)), [0], [0], 1)


class TestGATConv:
    def test_output_shape(self, dataset, subgraph):
        conv = GATConv(dataset.feature_dim, 16,
                       np.random.default_rng(0), heads=2)
        block = subgraph.blocks[0]
        out = conv.forward_block(
            block, Tensor(dataset.features[block.src_nodes]))
        assert out.shape == (block.num_dst, 16)

    def test_heads_must_divide(self):
        with pytest.raises(TrainingError):
            GATConv(8, 10, np.random.default_rng(0), heads=3)

    @pytest.mark.parametrize("slope", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_negative_slope_rejected(self, slope):
        """A non-finite slope made every output row NaN, silently
        unless the sanitizer was armed."""
        with pytest.raises(TrainingError, match="negative_slope"):
            GATConv(8, 8, np.random.default_rng(0), negative_slope=slope)

    def test_parameters_include_attention(self):
        conv = GATConv(8, 8, np.random.default_rng(0), heads=2)
        # 2 heads x (W, a_src, a_dst) + bias
        assert len(conv.parameters()) == 7

    def test_attention_rows_normalized(self, dataset, subgraph):
        """Attention coefficients over each destination's incoming
        edges (incl. self-loop) sum to one."""
        block = subgraph.blocks[0]
        conv = GATConv(dataset.feature_dim, 8, np.random.default_rng(0))
        edges = block_attention_edges(block)
        edge_dst, edge_src = edges.edge_dst, edges.edge_src
        h = Tensor(dataset.features[block.src_nodes])
        transformed = h @ conv.weights[0]
        scores = ((transformed @ conv.attn_src[0]).gather_rows(edge_src)
                  + (transformed @ conv.attn_dst[0]).gather_rows(edge_dst))
        alpha = segment_softmax(scores.reshape(-1).leaky_relu(0.2),
                                edge_dst, num_segments=block.num_dst)
        sums = np.zeros(block.num_dst)
        np.add.at(sums, edge_dst, alpha.data)
        assert np.allclose(sums, 1.0, atol=1e-5)


class TestGATModel:
    def test_gat_trains(self, dataset, subgraph):
        model = build_model("gat", dataset.feature_dim,
                            dataset.num_classes,
                            rng=np.random.default_rng(0))
        assert isinstance(model, GAT)
        opt = Adam(model.parameters(), lr=0.01)
        feats = dataset.features[subgraph.input_nodes]
        labels = dataset.labels[subgraph.seeds]
        first = None
        for _step in range(15):
            logits = model.forward(subgraph, feats)
            loss = softmax_cross_entropy(logits, labels)
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.7 * first
