"""GPU memory footprint model.

The paper's batch preparation step sizes each batch "according to the
GPU's available memory" (§1, step 2).  This module estimates the device
memory one training batch needs — input features, per-layer activations
(kept for backward), block topology, model parameters and optimizer
state — and solves for the largest batch size that fits a given GPU.

The estimate works from the same expansion model as the samplers: a
batch of ``b`` seeds with fanouts ``(f_1, ..., f_L)`` touches at most
``b * (1 + f_1 + f_1 * f_2 + ...)`` vertices, with deduplication
discounting that bound on real graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TransferError

__all__ = ["MemoryEstimate", "estimate_batch_memory", "max_batch_size"]

FLOAT_BYTES = 4
INDEX_BYTES = 8
# Adam keeps two moments per parameter alongside the gradient.
OPTIMIZER_STATE_FACTOR = 3


@dataclass
class MemoryEstimate:
    """Bytes of GPU memory for one training batch."""

    feature_bytes: int       # raw input rows on device
    activation_bytes: int    # per-layer outputs kept for backward
    topology_bytes: int      # block CSR structures
    model_bytes: int         # parameters + gradients + optimizer state

    @property
    def total_bytes(self):
        return (self.feature_bytes + self.activation_bytes
                + self.topology_bytes + self.model_bytes)

    def fits(self, spec, headroom=0.1):
        """Does this batch fit the spec's GPU with ``headroom`` spare?"""
        return self.total_bytes <= (1.0 - headroom) * spec.gpu_memory


def _model_bytes(feature_dim, hidden_dim, num_classes, num_layers):
    params = 0
    dims = [feature_dim] + [hidden_dim] * num_layers
    for i in range(num_layers):
        params += dims[i] * dims[i + 1] + dims[i + 1]
    params += hidden_dim * num_classes + num_classes
    return params * FLOAT_BYTES * (1 + OPTIMIZER_STATE_FACTOR)


def _expansion_profile(batch_size, fanout, dedup_factor):
    """Expected vertices per layer, deepest (input) layer first."""
    sizes = [float(batch_size)]
    for f in fanout:
        sizes.append(sizes[-1] * (1 + f) * dedup_factor)
    return list(reversed(sizes))


def estimate_batch_memory(batch_size, fanout, feature_dim,
                          hidden_dim=128, num_classes=40,
                          dedup_factor=0.7, num_vertices=None):
    """Estimate GPU memory for a fanout-sampled training batch.

    Parameters
    ----------
    batch_size, fanout:
        The batch-preparation parameters (fanout outermost first).
    feature_dim, hidden_dim, num_classes:
        Model dimensions.
    dedup_factor:
        Discount on the worst-case expansion from shared neighbors
        (0.7 is typical for the paper's graphs at moderate batch sizes).
    num_vertices:
        Optional graph size capping every layer's vertex count.
    """
    if batch_size < 1 or not fanout:
        raise TransferError("need a positive batch size and fanout")
    if not 0 < dedup_factor <= 1:
        raise TransferError("dedup_factor must be in (0, 1]")
    layers = _expansion_profile(batch_size, fanout, dedup_factor)
    if num_vertices is not None:
        layers = [min(size, float(num_vertices)) for size in layers]
    dims = [feature_dim] + [hidden_dim] * len(fanout)
    feature_bytes = int(layers[0] * feature_dim * FLOAT_BYTES)
    activation_bytes = int(sum(
        layers[i + 1] * dims[i + 1] * FLOAT_BYTES
        for i in range(len(fanout))))
    # Block j (innermost first) aggregates into layers[j + 1]
    # destinations, each drawing its layer's fanout.
    edges = sum(layers[j + 1] * fanout[len(fanout) - 1 - j]
                for j in range(len(fanout)))
    topology_bytes = int(2 * edges * INDEX_BYTES)
    return MemoryEstimate(
        feature_bytes=feature_bytes,
        activation_bytes=activation_bytes,
        topology_bytes=topology_bytes,
        model_bytes=_model_bytes(feature_dim, hidden_dim, num_classes,
                                 len(fanout)))


def max_batch_size(spec, fanout, feature_dim, hidden_dim=128,
                   num_classes=40, dedup_factor=0.7, num_vertices=None,
                   headroom=0.1, ceiling=1_048_576):
    """Largest batch size whose estimated footprint fits the GPU.

    Binary search over the (monotone) memory estimate; returns 0 when
    even a single seed does not fit.
    """
    def fits(size):
        estimate = estimate_batch_memory(
            size, fanout, feature_dim, hidden_dim=hidden_dim,
            num_classes=num_classes, dedup_factor=dedup_factor,
            num_vertices=num_vertices)
        return estimate.fits(spec, headroom=headroom)

    if not fits(1):
        return 0
    low, high = 1, 2
    while high < ceiling and fits(high):
        low, high = high, high * 2
    while low + 1 < high:
        mid = (low + high) // 2
        if fits(mid):
            low = mid
        else:
            high = mid
    return low
