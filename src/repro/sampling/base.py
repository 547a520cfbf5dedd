"""Sampler interface and the shared vectorized neighbor-draw kernel."""

from __future__ import annotations

import abc

import numpy as np

from ..errors import SamplingError
from ..perf import sorted_unique
from .block import SampledSubgraph, build_block

__all__ = ["Sampler", "draw_neighbors", "expand_layers", "unique_seeds"]


def draw_neighbors(graph, frontier, counts, rng):
    """Draw ``counts[i]`` in-neighbors of ``frontier[i]``, vectorized.

    The pure draw: one ``rng.random(total)`` per call, one gather, and
    nothing else.  Draws are with replacement, so the returned pairs
    are in frontier order and may repeat;
    :func:`~repro.sampling.block.build_block` collapses them with the
    one sort it needs anyway, leaving a vertex with *at most*
    ``counts[i]`` distinct sampled neighbors (exactly that many when
    its degree is large).  This keeps the kernel a single vectorized
    gather — the same trade DGL's samplers make in their fast paths.

    Returns ``(edge_dst, edge_src)`` global-id arrays.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if len(frontier) != len(counts):
        raise SamplingError("frontier and counts must align")
    indptr, indices = graph.in_csr()
    start = indptr[frontier]
    degrees = indptr[frontier + 1] - start
    # Clamped to [0, degree]; the lower clamp also covers a negative
    # degree, so ``degrees`` needs no pass of its own.
    counts = np.minimum(counts, degrees)
    np.maximum(counts, 0, out=counts)
    total = int(np.add.reduce(counts))
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    offsets = (rng.random(total) * degrees.repeat(counts)).astype(np.int64)
    return frontier.repeat(counts), indices[start.repeat(counts) + offsets]


def unique_seeds(graph, seeds):
    """The sorted distinct int64 seed ids every sampler starts from.

    :class:`SamplingError` when there are none or one is not a vertex
    of ``graph`` — sorted, so the two ends are the whole range check.
    """
    seeds = sorted_unique(np.array(seeds, dtype=np.int64).reshape(-1))
    if len(seeds) == 0:
        raise SamplingError("cannot sample an empty seed set")
    if seeds[0] < 0 or seeds[-1] >= graph.num_vertices:
        bad = seeds[0] if seeds[0] < 0 else seeds[-1]
        raise SamplingError(
            f"seed {bad} is outside the graph's vertices "
            f"0..{graph.num_vertices - 1}")
    return seeds


def expand_layers(graph, seeds, count_fn, num_layers, rng):
    """Build an L-layer :class:`SampledSubgraph` by recursive expansion.

    ``count_fn(layer, frontier, degrees)`` returns how many neighbors to
    draw per frontier vertex for that layer (layer 0 is the outermost,
    next to the seeds).
    """
    seeds = unique_seeds(graph, seeds)
    indptr, _ = graph.in_csr()
    blocks_outer_first = []
    frontier = seeds
    for layer in range(num_layers):
        degrees = indptr[frontier + 1] - indptr[frontier]
        counts = count_fn(layer, frontier, degrees)
        edge_dst, edge_src = draw_neighbors(graph, frontier, counts, rng)
        block = build_block(frontier, edge_dst, edge_src)
        blocks_outer_first.append(block)
        frontier = block.src_nodes
    return SampledSubgraph(seeds=seeds,
                           blocks=list(reversed(blocks_outer_first)))


class Sampler(abc.ABC):
    """Base class for batch-preparation samplers.

    A sampler turns a set of seed (training) vertices into the
    :class:`SampledSubgraph` a GNN trains on.
    """

    name = "abstract"

    def __init__(self, num_layers):
        if num_layers < 1:
            raise SamplingError(f"num_layers must be >= 1, got {num_layers}")
        self.num_layers = num_layers

    @abc.abstractmethod
    def sample(self, graph, seeds, rng):
        """Sample the training subgraph for ``seeds``."""

    def describe(self):
        """Short human-readable parameter summary."""
        return self.name
