"""Synthetic graph generators.

The dataset suite (``repro.graph.datasets``) needs graphs with controllable
*degree skew* (power-law vs. flat) and *community structure* (clustering,
label locality), because those are the structural properties the paper's
conclusions rest on.  All generators share one engine,
:func:`community_configuration_graph`, which plants both properties:

* each vertex gets a sampling *weight* — power-law weights give skewed
  degrees, constant weights give flat degrees;
* each vertex belongs to a *community*; an edge keeps its destination
  inside the source's community with probability ``1 - mixing``.

All generators return undirected (symmetric) :class:`CSRGraph` objects and
take an explicit :class:`numpy.random.Generator` for reproducibility.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..perf.unique import sorted_unique
from ..perf.weighted import WeightedChoice
from .build import from_edges

__all__ = [
    "community_configuration_graph",
    "power_law_graph",
    "flat_graph",
    "power_law_weights",
]


def power_law_weights(n, exponent, rng):
    """Vertex sampling weights whose induced degrees follow a power law.

    Uses the Chung–Lu recipe: ``w_i proportional to (i + i0)^(-1/(exponent-1))``
    over a random permutation of ranks, so high-weight vertices are spread
    across vertex ids (and therefore across communities).
    """
    if not exponent > 1.0:  # nan too
        raise GraphError(f"power-law exponent must exceed 1, got {exponent}")
    ranks = rng.permutation(n) + 1.0
    return ranks ** (-1.0 / (exponent - 1.0))


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
        ``int`` array of length ``n`` with community ids (usually
        ``0..C-1``; any integers work, drawn in ascending id order).
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
    if not np.isfinite(weights.sum()):  # nan, +-inf, or an overflowing sum
        raise GraphError("weights must be finite")
    if np.any(weights <= 0):
        raise GraphError("weights must be positive")
    if m <= 0 or n <= 1:
        return from_edges([], [], n, symmetrize_edges=True)

    # Every distribution is tabled once (``WeightedChoice``) and drawn
    # from in every round.  ``rank[v]`` is the position of ``v``'s
    # community among the distinct community ids, ascending by value.
    anywhere = WeightedChoice(weights / weights.sum())
    _, rank, sizes = np.unique(communities, return_inverse=True,
                               return_counts=True)
    members_of = np.split(np.argsort(rank, kind="stable"),
                          np.cumsum(sizes)[:-1])
    within = [anywhere if len(members) < 2 else WeightedChoice(
        weights[members] / weights[members].sum(), members)
        for members in members_of]

    def draw_edges(count):
        """Draw ``count`` candidate edges honoring the mixing parameter."""
        src = anywhere.draw(rng, count)
        dst = np.empty(count, dtype=np.int64)
        intra = rng.random(count) >= mixing
        n_inter = int((~intra).sum())
        if n_inter:
            # Inter-community (community-blind) destinations.
            dst[~intra] = anywhere.draw(rng, n_inter)
        if n_inter < count:
            # Intra-community destinations: per-community weighted draws,
            # communities ascending, positions ascending within each.
            # Positions are distinct, so one sort of packed
            # ``(rank << width) | position`` keys is that stable order.
            width = count.bit_length()
            key = np.flatnonzero(intra)
            key |= rank[src[key]] << width
            key.sort()
            at = key & ((1 << width) - 1)
            key >>= width
            bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(),
                      len(key)]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                dst[at[lo:hi]] = within[key[lo]].draw(rng, hi - lo)
        return src, dst

    shift = max(n - 1, 1).bit_length()

    def distinct_pairs(src, dst):
        """Sorted packed keys of the distinct undirected non-loop pairs:
        half the edge count of the symmetrized, deduplicated graph."""
        keep = src != dst
        src, dst = src[keep], dst[keep]
        return sorted_unique((np.minimum(src, dst) << shift)
                             | np.maximum(src, dst))

    # Hubs collide often, so a single oversampled draw can fall well short
    # of the target after dedup.  Top up until within 5% or out of rounds;
    # the rounds count pairs, and the graph is built once, at the end.
    all_src, all_dst = draw_edges(int(m * 1.15) + 16)
    pairs = distinct_pairs(all_src, all_dst)
    for _round in range(4):
        have = len(pairs)
        if have >= 0.95 * m:
            break
        retention = max(have / max(len(all_src), 1), 0.05)
        extra_src, extra_dst = draw_edges(
            int((m - have) / retention) + 16)
        all_src = np.concatenate([all_src, extra_src])
        all_dst = np.concatenate([all_dst, extra_dst])
        pairs = sorted_unique(np.concatenate(
            [pairs, distinct_pairs(extra_src, extra_dst)]))
    return from_edges(all_src, all_dst, n, symmetrize_edges=True)


def _edge_target(n, avg_degree):
    """Undirected edge count for ``n`` vertices of ``avg_degree``."""
    if not np.isfinite(avg_degree):
        raise GraphError(f"avg_degree must be finite, got {avg_degree}")
    return max(1, int(n * avg_degree / 2))


def power_law_graph(num_vertices, avg_degree, rng, exponent=2.3,
                    num_communities=1, mixing=0.2):
    """Power-law graph (optionally with communities).

    ``avg_degree`` counts undirected incident edges per vertex, so the
    generated directed edge count is roughly ``num_vertices * avg_degree``.
    """
    n = int(num_vertices)
    m = _edge_target(n, avg_degree)
    weights = power_law_weights(n, exponent, rng)
    communities = assign_communities(n, num_communities, rng)
    return community_configuration_graph(n, m, communities, weights,
                                         mixing, rng), communities


def flat_graph(num_vertices, avg_degree, rng, num_communities=1,
               mixing=0.2, weight_jitter=0.1):
    """Graph with a *flat* (low-variance) degree distribution.

    Stand-in for graphs the paper treats as non-power-law (OGB-Papers):
    vertex weights are near-constant, so degree no longer predicts access
    frequency and degree-based caching loses its edge.
    """
    n = int(num_vertices)
    m = _edge_target(n, avg_degree)
    weights = 1.0 + weight_jitter * rng.random(n)
    communities = assign_communities(n, num_communities, rng)
    return community_configuration_graph(n, m, communities, weights,
                                         mixing, rng), communities


def assign_communities(num_vertices, num_communities, rng,
                       contiguous=True):
    """Assign each vertex a community id in ``0..C-1``.

    ``contiguous=True`` lays communities out as consecutive id blocks —
    mirroring real datasets whose crawl order groups related vertices —
    which matters for the 256 KB-block locality experiments (Figure 15).
    """
    n, c = int(num_vertices), int(num_communities)
    if c <= 0:
        raise GraphError(f"need at least one community, got {c}")
    if contiguous:
        return (np.arange(n, dtype=np.int64) * c) // max(n, 1)
    return rng.integers(0, c, size=n, dtype=np.int64)
