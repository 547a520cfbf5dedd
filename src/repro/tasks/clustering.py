"""Graph clustering — the paper's third cited downstream task.

GNN embeddings feed "graph clustering" (§1).  This module closes that
loop end to end: train embeddings (either supervised through the usual
trainer, or with the link-prediction objective for the unsupervised
path), k-means them in embedding space, and score the clusters against
the planted communities with normalized mutual information (NMI).

Both k-means and NMI are implemented here in plain numpy — no sklearn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError
from ..nn import no_grad

__all__ = ["kmeans", "normalized_mutual_information", "cluster_embeddings",
           "ClusteringResult", "cluster_dataset"]


def kmeans(points, num_clusters, rng, max_iterations=50, tolerance=1e-4):
    """Lloyd's k-means with k-means++ seeding.

    Returns ``(labels, centroids, inertia)``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if num_clusters < 1 or num_clusters > n:
        raise TrainingError(
            f"num_clusters must be in [1, {n}], got {num_clusters}")

    # k-means++ seeding: spread initial centroids by squared distance.
    centroids = np.empty((num_clusters, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest_sq = np.full(n, np.inf)
    for k in range(1, num_clusters):
        distance_sq = ((points - centroids[k - 1]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
        total = closest_sq.sum()
        if total == 0:
            centroids[k] = points[rng.integers(n)]
            continue
        centroids[k] = points[rng.choice(n, p=closest_sq / total)]

    labels = np.zeros(n, dtype=np.int64)
    for _iteration in range(max_iterations):
        # Assign: nearest centroid by squared Euclidean distance.
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2
                     ).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        # Update: mean of members; empty clusters respawn at the
        # farthest point.
        moved = 0.0
        for k in range(num_clusters):
            members = points[new_labels == k]
            if len(members) == 0:
                farthest = distances.min(axis=1).argmax()
                new_centroid = points[farthest]
            else:
                new_centroid = members.mean(axis=0)
            moved = max(moved, float(np.abs(
                new_centroid - centroids[k]).max()))
            centroids[k] = new_centroid
        labels = new_labels
        if moved < tolerance:
            break
    inertia = float(((points - centroids[labels]) ** 2).sum())
    return labels, centroids, inertia


def normalized_mutual_information(labels_a, labels_b):
    """NMI between two labelings (arithmetic-mean normalization);
    1.0 = identical partitions up to renaming, ~0 = independent."""
    labels_a = np.asarray(labels_a, dtype=np.int64)
    labels_b = np.asarray(labels_b, dtype=np.int64)
    if len(labels_a) != len(labels_b) or len(labels_a) == 0:
        raise TrainingError("labelings must be non-empty and aligned")
    n = len(labels_a)

    def entropy(labels):
        counts = np.bincount(labels)
        probs = counts[counts > 0] / n
        return float(-(probs * np.log(probs)).sum())

    ids_a = np.unique(labels_a)
    ids_b = np.unique(labels_b)
    contingency = np.zeros((len(ids_a), len(ids_b)))
    index_a = np.searchsorted(ids_a, labels_a)
    index_b = np.searchsorted(ids_b, labels_b)
    # Label-pair contingency histogram for mutual information — a
    # clustering statistic, not a graph aggregation; no kernel seam.
    np.add.at(contingency, (index_a, index_b), 1.0)  # repro: noqa[ARC002]
    joint = contingency / n
    outer = joint.sum(axis=1, keepdims=True) @ joint.sum(
        axis=0, keepdims=True)
    mask = joint > 0
    mutual = float((joint[mask] * np.log(joint[mask]
                                         / outer[mask])).sum())
    h_a, h_b = entropy(index_a), entropy(index_b)
    denominator = 0.5 * (h_a + h_b)
    if denominator == 0:
        return 1.0 if h_a == h_b else 0.0
    return mutual / denominator


def cluster_embeddings(embeddings, num_clusters, rng, restarts=3):
    """k-means with restarts; returns the labels of the lowest-inertia
    run."""
    best = None
    for _restart in range(restarts):
        labels, _centroids, inertia = kmeans(embeddings, num_clusters,
                                             rng)
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    return best[0]


@dataclass
class ClusteringResult:
    """Outcome of clustering a dataset's embeddings."""

    labels: np.ndarray
    nmi_vs_communities: float
    nmi_vs_classes: float


def cluster_dataset(dataset, model, sampler, num_clusters=None, rng=None,
                    batch_size=1024):
    """Embed every vertex with ``model`` and k-means the embeddings.

    Scores the clustering against the planted communities (if the
    dataset has them) and against the label classes.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    num_clusters = num_clusters or dataset.num_classes
    vertices = np.arange(dataset.num_vertices)
    embeddings = np.zeros((dataset.num_vertices, 0))
    chunks = []
    with no_grad():
        for start in range(0, len(vertices), batch_size):
            batch = vertices[start:start + batch_size]
            subgraph = sampler.sample(dataset.graph, batch, rng)
            h = model.embed(subgraph,
                            dataset.features[subgraph.input_nodes])
            chunks.append((subgraph.seeds, h.data))
    width = chunks[0][1].shape[1]
    embeddings = np.zeros((dataset.num_vertices, width))
    for seeds, values in chunks:
        embeddings[seeds] = values

    labels = cluster_embeddings(embeddings, num_clusters, rng)
    nmi_communities = (normalized_mutual_information(
        labels, dataset.communities)
        if dataset.communities is not None else 0.0)
    nmi_classes = normalized_mutual_information(labels, dataset.labels)
    return ClusteringResult(labels=labels,
                            nmi_vs_communities=nmi_communities,
                            nmi_vs_classes=nmi_classes)
