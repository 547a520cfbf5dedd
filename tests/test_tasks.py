"""Unit tests for the link-prediction task and its building blocks."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.graph import load_dataset
from repro.nn import (Tensor, binary_cross_entropy_with_logits, roc_auc,
                      sigmoid)
from repro.sampling import NeighborSampler
from repro.tasks import (sample_negative_edges, split_edges,
                         train_link_prediction)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


class TestBCEAndAUC:
    def test_bce_perfect_predictions_near_zero(self):
        logits = np.array([100.0, -100.0])
        loss = binary_cross_entropy_with_logits(logits,
                                                np.array([1.0, 0.0]))
        assert loss.item() < 1e-6

    def test_bce_symmetric_at_zero(self):
        loss = binary_cross_entropy_with_logits(
            np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0]))
        assert loss.item() == pytest.approx(np.log(2), rel=1e-5)

    def test_bce_gradient_is_sigmoid_minus_target(self):
        z = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        targets = np.array([1.0, 0.0])
        binary_cross_entropy_with_logits(z, targets).backward()
        expected = (sigmoid(z.data) - targets) / 2
        assert np.allclose(z.grad, expected, atol=1e-6)

    def test_bce_shape_mismatch(self):
        with pytest.raises(TrainingError):
            binary_cross_entropy_with_logits(np.zeros(3), np.zeros(4))

    def test_sigmoid_stable_extremes(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0)

    def test_auc_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_auc_inverted_ranking(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_auc_random_is_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(2000)
        labels = rng.integers(0, 2, size=2000)
        assert abs(roc_auc(scores, labels) - 0.5) < 0.05

    def test_auc_ties_averaged(self):
        assert roc_auc([0.5, 0.5], [1, 0]) == pytest.approx(0.5)

    def test_auc_degenerate_class(self):
        assert roc_auc([0.1, 0.9], [1, 1]) == 0.5


class TestEdgeSplit:
    def test_partition_of_edges(self, dataset):
        split = split_edges(dataset.graph, np.random.default_rng(0),
                            val_fraction=0.1, test_fraction=0.2)
        total = (len(split.train_edges) + len(split.val_edges)
                 + len(split.test_edges))
        assert total == dataset.graph.num_edges // 2

    def test_train_graph_excludes_eval_edges(self, dataset):
        split = split_edges(dataset.graph, np.random.default_rng(0))
        for u, v in split.test_edges[:50]:
            assert not split.train_graph.has_edge(int(u), int(v))

    def test_train_graph_contains_train_edges(self, dataset):
        split = split_edges(dataset.graph, np.random.default_rng(0))
        for u, v in split.train_edges[:50]:
            assert split.train_graph.has_edge(int(u), int(v))

    def test_invalid_fractions(self, dataset):
        with pytest.raises(TrainingError):
            split_edges(dataset.graph, np.random.default_rng(0),
                        val_fraction=0.6, test_fraction=0.6)


class TestNegativeSampling:
    def test_negatives_are_non_edges(self, dataset):
        negatives = sample_negative_edges(dataset.graph, 200,
                                          np.random.default_rng(0))
        assert len(negatives) == 200
        for u, v in negatives[:50]:
            assert not dataset.graph.has_edge(int(u), int(v))
            assert u != v


class TestTraining:
    def test_learns_above_chance(self, dataset):
        result = train_link_prediction(
            dataset, NeighborSampler((5, 5)), epochs=10,
            batch_edges=256, seed=0)
        assert max(result.val_auc_curve) > 0.55
        assert result.test_auc > 0.55
        assert len(result.val_auc_curve) == 10

    def test_loss_decreases(self, dataset):
        result = train_link_prediction(
            dataset, NeighborSampler((5, 5)), epochs=5, batch_edges=512,
            seed=1)
        assert result.losses[-1] < result.losses[0]

    def test_reproducible(self, dataset):
        first = train_link_prediction(dataset, NeighborSampler((4, 4)),
                                      epochs=2, seed=3)
        again = train_link_prediction(dataset, NeighborSampler((4, 4)),
                                      epochs=2, seed=3)
        assert first.val_auc_curve == again.val_auc_curve
