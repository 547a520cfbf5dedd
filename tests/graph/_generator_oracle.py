"""The ``rng.choice`` graph generator, kept verbatim as the oracle.

``community_configuration_graph`` below is the body
``repro.graph.generators`` shipped before its weighted draws went
through ``repro.perf.WeightedChoice``: every draw is a
``Generator.choice(..., p=...)`` that searches the cdf, each round of
intra-community draws builds one mask per community, and every top-up
round rebuilds the whole graph to read its edge count.  It defines the
graph (CSR bytes) and the generator state the shipped one must
reproduce; ``test_generator_oracle.py`` runs both.  Needs numpy only.
Do not "fix" or speed up anything here.
"""

import numpy as np

from repro.errors import GraphError
from repro.graph.build import from_edges


def community_configuration_graph(num_vertices, num_edges, communities,
                                  weights, mixing, rng):
    """Sample an undirected graph with planted communities and given
    vertex weights.

    Parameters
    ----------
    num_vertices:
        Vertex count ``n``.
    num_edges:
        Target number of *undirected* edges (the result has roughly
        ``2 * num_edges`` directed edges; duplicates and self-loops are
        dropped, so slightly fewer).
    communities:
        ``int`` array of length ``n`` with community ids ``0..C-1``.
    weights:
        Positive sampling weights of length ``n``.
    mixing:
        Probability that an edge leaves its source's community
        (``0`` = perfectly assortative, ``1`` = community-blind).
    rng:
        :class:`numpy.random.Generator`.
    """
    n = int(num_vertices)
    m = int(num_edges)
    communities = np.asarray(communities, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(communities) != n or len(weights) != n:
        raise GraphError("communities/weights must have length num_vertices")
    if not 0.0 <= mixing <= 1.0:
        raise GraphError(f"mixing must be in [0, 1], got {mixing}")
    if np.any(weights <= 0):
        raise GraphError("weights must be positive")
    if m <= 0 or n <= 1:
        return from_edges([], [], n, symmetrize_edges=True)

    probs = weights / weights.sum()

    def draw_edges(count):
        """Draw ``count`` candidate edges honoring the mixing parameter."""
        src = rng.choice(n, size=count, p=probs)
        dst = np.empty(count, dtype=np.int64)
        intra = rng.random(count) >= mixing
        n_inter = int((~intra).sum())
        if n_inter:
            # Inter-community (community-blind) destinations.
            dst[~intra] = rng.choice(n, size=n_inter, p=probs)
        if intra.any():
            # Intra-community destinations: per-community weighted choice.
            comm_of_src = communities[src]
            for c in np.unique(comm_of_src[intra]):
                members = np.flatnonzero(communities == c)
                take = intra & (comm_of_src == c)
                picks = int(take.sum())
                if len(members) < 2:
                    dst[take] = rng.choice(n, size=picks, p=probs)
                    continue
                local = weights[members]
                dst[take] = members[rng.choice(
                    len(members), size=picks, p=local / local.sum())]
        return src, dst

    # Hubs collide often, so a single oversampled draw can fall well short
    # of the target after dedup.  Top up until within 5% or out of rounds.
    all_src, all_dst = draw_edges(int(m * 1.15) + 16)
    graph = from_edges(all_src, all_dst, n, symmetrize_edges=True)
    for _round in range(4):
        have = graph.num_edges // 2
        if have >= 0.95 * m:
            break
        retention = max(have / max(len(all_src), 1), 0.05)
        extra_src, extra_dst = draw_edges(
            int((m - have) / retention) + 16)
        all_src = np.concatenate([all_src, extra_src])
        all_dst = np.concatenate([all_dst, extra_dst])
        graph = from_edges(all_src, all_dst, n, symmetrize_edges=True)
    return graph
