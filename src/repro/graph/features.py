"""Vertex feature and label synthesis.

The paper's accuracy experiments need datasets a GNN can genuinely learn
from.  We plant the signal the same way the graph generators plant
communities: every community has a feature centroid, vertices are noisy
copies of their community's centroid, and the label *is* the community
(with optional label noise).  A GNN then benefits from aggregation
(denoising over neighbors, most of which share the community), so graph
structure carries real information — exactly the regime the paper studies.

For the LiveJournal-family datasets the paper "randomly generate[s]
features and labels"; :func:`random_features_and_labels` mirrors that.
"""

from __future__ import annotations

import numpy as np

from ..perf.sanitize import check_contract
from ..errors import DatasetError

__all__ = ["community_features_and_labels", "random_features_and_labels"]


@check_contract(shape=(None, None), dtype=np.float32)
def _finalize_features(features):
    """Cast to the library-wide feature dtype.  Every dataset's feature
    matrix leaves through here, so the contract (2-D float32) holds for
    all downstream transfer/cache byte accounting under
    ``FLAGS.sanitize``."""
    return np.ascontiguousarray(features, dtype=np.float32)


def community_features_and_labels(communities, feature_dim, num_classes,
                                  rng, noise=1.0, signal=0.25,
                                  label_noise=0.05):
    """Features/labels correlated with planted communities.

    Parameters
    ----------
    communities:
        Community id per vertex (``0..C-1``).
    feature_dim:
        Output feature dimensionality ``F``.
    num_classes:
        Number of label classes ``L``; community ``c`` maps to class
        ``c % L`` (generators normally use ``C == L``).
    noise:
        Standard deviation of per-vertex Gaussian noise.
    signal:
        Scale of the community centroid component.
    label_noise:
        Fraction of vertices whose label is replaced uniformly at random.

    Returns
    -------
    (features, labels):
        ``float32 (n, F)`` array and ``int64 (n,)`` array.
    """
    communities = np.asarray(communities, dtype=np.int64)
    if feature_dim <= 0 or num_classes <= 0:
        raise DatasetError("feature_dim and num_classes must be positive")
    num_communities = int(communities.max()) + 1 if len(communities) else 0
    centroids = rng.normal(0.0, 1.0, size=(num_communities, feature_dim))
    features = (signal * centroids[communities]
                + noise * rng.normal(0.0, 1.0,
                                     size=(len(communities), feature_dim)))
    labels = communities % num_classes
    if label_noise > 0 and len(labels):
        flip = rng.random(len(labels)) < label_noise
        labels = labels.copy()
        labels[flip] = rng.integers(0, num_classes, size=int(flip.sum()))
    return _finalize_features(features), labels.astype(np.int64)


def random_features_and_labels(num_vertices, feature_dim, num_classes, rng):
    """Uninformative features and labels (the paper's LiveJournal-family
    treatment): Gaussian features, uniform labels."""
    if feature_dim <= 0 or num_classes <= 0:
        raise DatasetError("feature_dim and num_classes must be positive")
    features = rng.normal(0.0, 1.0, size=(num_vertices, feature_dim))
    labels = rng.integers(0, num_classes, size=num_vertices)
    return _finalize_features(features), labels.astype(np.int64)
