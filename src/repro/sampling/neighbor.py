"""Fanout-based vertex-wise neighbor sampling (GraphSAGE-style).

The dominant sampling method in Table 1: every frontier vertex draws a
fixed number of in-neighbors per layer.  The paper's default fanout is
``(25, 10)`` — 25 neighbors for the first (outermost) layer, 10 for the
second.
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from .base import Sampler, expand_layers

__all__ = ["NeighborSampler", "DEFAULT_FANOUT"]

DEFAULT_FANOUT = (25, 10)


class NeighborSampler(Sampler):
    """Sample a fixed ``fanout[l]`` neighbors per vertex per layer.

    Parameters
    ----------
    fanout:
        Sequence of per-layer fanouts, outermost first, e.g. ``(25, 10)``
        for a 2-layer GNN.
    """

    name = "fanout"

    def __init__(self, fanout=DEFAULT_FANOUT):
        fanout = tuple(int(f) for f in fanout)
        if not fanout or any(f < 1 for f in fanout):
            raise SamplingError(f"fanout must be positive, got {fanout}")
        super().__init__(num_layers=len(fanout))
        self.fanout = fanout
        # One-element rows: ``.repeat(n)`` is the per-layer count array
        # in one call.
        self._fanout_rows = [np.array([f], dtype=np.int64)
                             for f in fanout]

    def sample(self, graph, seeds, rng):
        def counts(layer, frontier, degrees):
            return self._fanout_rows[layer].repeat(len(frontier))

        return expand_layers(graph, seeds, counts, self.num_layers, rng)

    def describe(self):
        return f"fanout{self.fanout}"
