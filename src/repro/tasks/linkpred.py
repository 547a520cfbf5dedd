"""Link prediction — the paper's second cited downstream task.

GNN embeddings feed "various downstream graph-related tasks (i.e.,
vertex classification, link prediction, and graph clustering)" (§1).
This module implements sample-based link prediction training end to
end:

1. the graph's (undirected) edges are split into train/val/test
   *positive* pairs, and the message-passing graph is rebuilt from the
   training edges only (no test leakage);
2. each step takes a batch of positive pairs plus equally many sampled
   *negative* pairs, computes endpoint embeddings with the usual
   sampled-subgraph pipeline, scores pairs by the embedding dot
   product, and minimizes binary cross-entropy;
3. quality is ROC-AUC on held-out positives vs fresh negatives.

Because the batch-preparation machinery is the same as for vertex
classification, every data-management technique (partitioners, caches,
transfer methods) composes with this task unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError
from ..graph.build import from_edges
from ..nn import (Adam, Tensor, binary_cross_entropy_with_logits,
                  build_model, no_grad, roc_auc)

__all__ = ["EdgeSplit", "split_edges", "sample_negative_edges",
           "LinkPredictionResult", "train_link_prediction",
           "score_pairs"]


@dataclass
class EdgeSplit:
    """Positive-edge split plus the leakage-free training graph."""

    train_graph: object            # CSRGraph built from train edges
    train_edges: np.ndarray        # (n_train, 2)
    val_edges: np.ndarray
    test_edges: np.ndarray


def _unique_undirected_edges(graph):
    src, dst = graph.edges()
    keep = src < dst
    return np.stack([src[keep], dst[keep]], axis=1)


def split_edges(graph, rng, val_fraction=0.05, test_fraction=0.1):
    """Split undirected edges into train/val/test positive pairs.

    The returned ``train_graph`` contains only training edges (both
    directions), so sampling during training never sees evaluation
    pairs.
    """
    if val_fraction < 0 or test_fraction < 0 \
            or val_fraction + test_fraction >= 1:
        raise TrainingError("invalid edge split fractions")
    pairs = _unique_undirected_edges(graph)
    if len(pairs) == 0:
        raise TrainingError("graph has no edges to split")
    order = rng.permutation(len(pairs))
    num_val = int(len(pairs) * val_fraction)
    num_test = int(len(pairs) * test_fraction)
    val_edges = pairs[order[:num_val]]
    test_edges = pairs[order[num_val:num_val + num_test]]
    train_edges = pairs[order[num_val + num_test:]]
    train_graph = from_edges(train_edges[:, 0], train_edges[:, 1],
                             graph.num_vertices, symmetrize_edges=True)
    return EdgeSplit(train_graph=train_graph, train_edges=train_edges,
                     val_edges=val_edges, test_edges=test_edges)


def sample_negative_edges(graph, count, rng, max_tries=20):
    """Uniformly sample ``count`` vertex pairs that are not edges."""
    n = graph.num_vertices
    if n < 2:
        raise TrainingError("need at least two vertices")
    negatives = []
    needed = count
    for _attempt in range(max_tries):
        if needed <= 0:
            break
        u = rng.integers(0, n, size=2 * needed)
        v = rng.integers(0, n, size=2 * needed)
        ok = u != v
        u, v = u[ok], v[ok]
        real = np.fromiter((graph.has_edge(a, b) for a, b in zip(u, v)),
                           dtype=bool, count=len(u))
        fresh = np.stack([u[~real], v[~real]], axis=1)[:needed]
        if len(fresh):
            negatives.append(fresh)
            needed -= len(fresh)
    if needed > 0:
        raise TrainingError("could not sample enough negative edges "
                            "(graph too dense?)")
    return np.concatenate(negatives)[:count]


def score_pairs(embeddings, seed_index_of, pairs):
    """Dot-product scores of embedding pairs as a 1-D Tensor.

    ``seed_index_of`` maps global vertex id -> row in ``embeddings``.
    """
    left = embeddings.gather_rows(seed_index_of[pairs[:, 0]])
    right = embeddings.gather_rows(seed_index_of[pairs[:, 1]])
    width = embeddings.data.shape[1]
    ones = Tensor(np.ones((width, 1), dtype=np.float32))
    return ((left * right) @ ones).reshape(-1)


@dataclass
class LinkPredictionResult:
    """Outcome of one link-prediction training run."""

    val_auc_curve: list = field(default_factory=list)
    test_auc: float = 0.0
    losses: list = field(default_factory=list)


def _evaluate_auc(model, dataset, split, sampler, positives, rng):
    negatives = sample_negative_edges(split.train_graph, len(positives),
                                      rng)
    pairs = np.concatenate([positives, negatives])
    labels = np.concatenate([np.ones(len(positives)),
                             np.zeros(len(negatives))])
    seeds = np.unique(pairs)
    subgraph = sampler.sample(split.train_graph, seeds, rng)
    seed_index_of = np.full(dataset.num_vertices, -1, dtype=np.int64)
    seed_index_of[subgraph.seeds] = np.arange(len(subgraph.seeds))
    with no_grad():
        embeddings = model.embed(subgraph,
                                 dataset.features[subgraph.input_nodes])
        scores = score_pairs(embeddings, seed_index_of, pairs)
    return roc_auc(scores.data, labels)


def train_link_prediction(dataset, sampler, epochs=10, batch_edges=512,
                          hidden_dim=64, learning_rate=0.003,
                          model_name="gcn", seed=0):
    """Train a GNN link predictor on ``dataset``; returns a
    :class:`LinkPredictionResult`.

    Parameters
    ----------
    dataset:
        Any :class:`~repro.graph.datasets.Dataset` (labels unused).
    sampler:
        Batch-preparation sampler (applied to pair endpoints).
    batch_edges:
        Positive pairs per step (matched 1:1 with negatives).
    """
    rng = np.random.default_rng(seed)
    split = split_edges(dataset.graph, rng)
    model = build_model(model_name, dataset.feature_dim,
                        num_classes=hidden_dim, hidden_dim=hidden_dim,
                        rng=np.random.default_rng(seed + 1))
    optimizer = Adam(model.parameters(), lr=learning_rate)
    seed_index_of = np.full(dataset.num_vertices, -1, dtype=np.int64)

    result = LinkPredictionResult()
    for _epoch in range(epochs):
        order = rng.permutation(len(split.train_edges))
        epoch_losses = []
        for start in range(0, len(order), batch_edges):
            positives = split.train_edges[order[start:start + batch_edges]]
            negatives = sample_negative_edges(split.train_graph,
                                              len(positives), rng)
            pairs = np.concatenate([positives, negatives])
            labels = np.concatenate([np.ones(len(positives)),
                                     np.zeros(len(negatives))])
            seeds = np.unique(pairs)
            subgraph = sampler.sample(split.train_graph, seeds, rng)
            seed_index_of[:] = -1
            seed_index_of[subgraph.seeds] = np.arange(len(subgraph.seeds))
            embeddings = model.embed(
                subgraph, dataset.features[subgraph.input_nodes])
            scores = score_pairs(embeddings, seed_index_of, pairs)
            loss = binary_cross_entropy_with_logits(scores, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        result.losses.append(float(np.mean(epoch_losses)))
        result.val_auc_curve.append(_evaluate_auc(
            model, dataset, split, sampler, split.val_edges,
            np.random.default_rng(seed + 99)))
    result.test_auc = _evaluate_auc(
        model, dataset, split, sampler, split.test_edges,
        np.random.default_rng(seed + 100))
    return result
