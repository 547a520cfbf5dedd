"""Subgraph-wise sampling (Cluster-GCN / GraphSAINT style).

The sampling operation is confined to one induced subgraph of the input
graph: the batch's seed vertices plus whatever other vertices belong to
the same sampled subgraph.  Every GNN layer then aggregates over the same
vertex set, so no neighborhood search escapes the subgraph — the cheap
extreme of the batch-preparation design space (§6.2).
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from .base import Sampler, unique_seeds
from .block import SampledSubgraph, build_block

__all__ = ["SubgraphSampler"]


class SubgraphSampler(Sampler):
    """Train on the subgraph induced by the seeds (plus optional random
    walk padding).

    Parameters
    ----------
    num_layers:
        GNN depth ``L`` (each layer reuses the same induced subgraph).
    walk_padding:
        Extra vertices added by 1-hop expansion of the seeds before
        induction, as a fraction of the seed count (0 = pure Cluster-GCN
        behaviour).
    """

    name = "subgraph"

    def __init__(self, num_layers=2, walk_padding=0.0):
        super().__init__(num_layers=num_layers)
        if walk_padding < 0:
            raise SamplingError(
                f"walk_padding must be >= 0, got {walk_padding}")
        self.walk_padding = float(walk_padding)

    def sample(self, graph, seeds, rng):
        seeds = unique_seeds(graph, seeds)
        vertices = seeds
        if self.walk_padding > 0:
            budget = int(np.ceil(self.walk_padding * len(seeds)))
            neighbor_chunks = [graph.in_neighbors(v) for v in seeds]
            pool = np.setdiff1d(np.concatenate(neighbor_chunks), seeds) \
                if neighbor_chunks else np.empty(0, dtype=np.int64)
            if len(pool) > budget:
                pool = rng.choice(pool, size=budget, replace=False)
            vertices = np.union1d(seeds, pool)

        # Edges of the induced subgraph (in global ids).
        indptr, indices = graph.in_csr()
        member = np.zeros(graph.num_vertices, dtype=bool)
        member[vertices] = True
        counts = indptr[vertices + 1] - indptr[vertices]
        edge_dst_all = np.repeat(vertices, counts)
        gather = np.concatenate(
            [np.arange(indptr[v], indptr[v + 1]) for v in vertices]) if \
            counts.sum() else np.empty(0, dtype=np.int64)
        edge_src_all = indices[gather]
        keep = member[edge_src_all]
        edge_dst_all, edge_src_all = edge_dst_all[keep], edge_src_all[keep]

        # Every layer reuses the same induced-edge set.  The outermost
        # block targets only the seeds; inner blocks target all members.
        blocks_outer_first = []
        frontier = seeds
        for _layer in range(self.num_layers):
            on_frontier = np.isin(edge_dst_all, frontier)
            block = build_block(frontier, edge_dst_all[on_frontier],
                                edge_src_all[on_frontier])
            blocks_outer_first.append(block)
            frontier = block.src_nodes
        return SampledSubgraph(seeds=seeds,
                               blocks=list(reversed(blocks_outer_first)))

    def describe(self):
        return f"subgraph(pad={self.walk_padding})x{self.num_layers}"
