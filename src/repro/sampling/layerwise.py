"""Layer-wise (importance) sampling, FastGCN-style.

Instead of expanding every vertex independently — which grows the
frontier exponentially with depth — layer-wise sampling draws one shared
pool of vertices per layer (with probability proportional to degree, the
usual importance proxy) and keeps only edges from the frontier into that
pool.  This caps the per-layer cost at ``layer_budget`` vertices but can
drop vertex dependencies, which the paper notes may hurt accuracy
(§6.2).
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from .base import Sampler, unique_seeds
from .block import SampledSubgraph, build_block

__all__ = ["LayerWiseSampler"]


class LayerWiseSampler(Sampler):
    """Sample a shared budgeted vertex pool per layer.

    Parameters
    ----------
    layer_budget:
        Maximum distinct source vertices added per layer.
    num_layers:
        GNN depth ``L``.
    """

    name = "layerwise"

    def __init__(self, layer_budget=512, num_layers=2):
        if layer_budget < 1:
            raise SamplingError(
                f"layer_budget must be >= 1, got {layer_budget}")
        super().__init__(num_layers=num_layers)
        self.layer_budget = int(layer_budget)

    def sample(self, graph, seeds, rng):
        seeds = unique_seeds(graph, seeds)
        indptr, indices = graph.in_csr()
        blocks_outer_first = []
        frontier = seeds
        for _layer in range(self.num_layers):
            # Candidate pool: all in-neighbors of the frontier.
            starts = indptr[frontier]
            ends = indptr[frontier + 1]
            counts = ends - starts
            edge_dst = np.repeat(frontier, counts)
            gather = np.concatenate(
                [np.arange(s, e) for s, e in zip(starts, ends)]) if \
                counts.sum() else np.empty(0, dtype=np.int64)
            edge_src = indices[gather]
            pool = np.unique(edge_src)
            if len(pool) > self.layer_budget:
                # Importance-sample the pool proportional to in-degree.
                weight = (indptr[pool + 1] - indptr[pool]).astype(np.float64)
                weight += 1.0
                chosen = rng.choice(len(pool), size=self.layer_budget,
                                    replace=False, p=weight / weight.sum())
                pool = pool[np.sort(chosen)]
            keep = np.isin(edge_src, pool)
            block = build_block(frontier, edge_dst[keep], edge_src[keep])
            blocks_outer_first.append(block)
            frontier = block.src_nodes
        return SampledSubgraph(seeds=seeds,
                               blocks=list(reversed(blocks_outer_first)))

    def describe(self):
        return f"layerwise(budget={self.layer_budget})x{self.num_layers}"
