"""The pre-fast-path batch-preparation code, kept verbatim as the oracle.

``build_block_reference`` and ``draw_neighbors_reference`` below are the
bodies ``repro.sampling`` shipped behind ``FLAGS.fused_block_assembly =
False`` before that flag was retired: sort-based block assembly and the
two-key lexsort dedup of sampled ``(dst, src)`` pairs.  They define the
blocks (vertex order, edge order, dedup) and the order of every ``rng``
draw the shipped ``draw_neighbors`` → ``build_block`` pipeline must
reproduce byte for byte — compared at the block level, because the
shipped ``draw_neighbors`` is the pure draw and leaves ordering and
dedup to ``build_block``'s one sort; ``test_block_fastpath.py`` runs
both on generated inputs.  Do not "fix" or speed up anything here.

:func:`slow_paths` swaps every retired fast path for its slow twin —
these two functions, the sort-based aggregation operator and GAT edge
list of ``tests/kernels/_operator_oracle.py`` rebuilt on every call,
and evaluation batches re-sampled every epoch — so whole training runs
can be compared bit for bit.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling.block import SampledBlock

from ..kernels._operator_oracle import (attention_edges_reference,
                                        block_operator_reference)


def build_block_reference(dst_nodes, edge_dst, edge_src):
    """Sort-based block assembly: ``setdiff1d`` for the new sources,
    two argsort+searchsorted rounds to localize, a two-key lexsort and
    a neighbour-compare mask to order and dedup."""
    dst_nodes = np.asarray(dst_nodes, dtype=np.int64)
    edge_dst = np.asarray(edge_dst, dtype=np.int64)
    edge_src = np.asarray(edge_src, dtype=np.int64)
    if len(edge_dst) != len(edge_src):
        raise SamplingError("edge arrays must have equal length")

    # Source list: destinations first (self-inclusion), then new sources.
    extra = np.setdiff1d(edge_src, dst_nodes, assume_unique=False)
    src_nodes = np.concatenate([dst_nodes, extra])

    # Global -> local translation, vectorized with searchsorted over a
    # stable sort of the id arrays.
    def localize(universe, queries, what):
        sorter = np.argsort(universe, kind="stable")
        spots = np.searchsorted(universe, queries, sorter=sorter)
        if len(queries) and (spots.max() >= len(universe)
                             or np.any(universe[sorter[spots]] != queries)):
            raise SamplingError(f"edge {what} not found in block vertices")
        return sorter[spots]

    dst_local = localize(dst_nodes, edge_dst, "destination")
    src_local = localize(src_nodes, edge_src, "source")

    if len(dst_local):
        order = np.lexsort((src_local, dst_local))
        dst_local, src_local = dst_local[order], src_local[order]
        keep = np.concatenate(([True], (dst_local[1:] != dst_local[:-1])
                               | (src_local[1:] != src_local[:-1])))
        dst_local, src_local = dst_local[keep], src_local[keep]

    counts = np.bincount(dst_local, minlength=len(dst_nodes))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return SampledBlock(dst_nodes=dst_nodes, src_nodes=src_nodes,
                        indptr=indptr, indices=src_local)


def draw_neighbors_reference(graph, frontier, counts, rng):
    """``draw_neighbors`` with the lexsort dedup: same draws from
    ``rng``, pairs ordered and collapsed by a two-key sort."""
    frontier = np.asarray(frontier, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if len(frontier) != len(counts):
        raise SamplingError("frontier and counts must align")
    indptr, indices = graph.in_csr()
    degrees = indptr[frontier + 1] - indptr[frontier]
    counts = np.minimum(counts, np.maximum(degrees, 0))
    counts = np.maximum(counts, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    edge_dst = np.repeat(frontier, counts)
    start = np.repeat(indptr[frontier], counts)
    degree_rep = np.repeat(degrees, counts)
    offsets = (rng.random(total) * degree_rep).astype(np.int64)
    edge_src = indices[start + offsets]

    order = np.lexsort((edge_src, edge_dst))
    edge_dst, edge_src = edge_dst[order], edge_src[order]
    keep = np.concatenate(([True], (edge_dst[1:] != edge_dst[:-1])
                           | (edge_src[1:] != edge_src[:-1])))
    return edge_dst[keep], edge_src[keep]


@contextmanager
def slow_paths():
    """Run the ``with`` body on the retired slow paths: reference block
    assembly and dedup in every sampler, a re-sorted aggregation
    operator and GAT edge list per call (nothing memoized on the
    block), no evaluation-subgraph replay."""
    import repro.core.trainer as trainer
    import repro.nn.layers as layers
    import repro.sampling.base as base
    import repro.sampling.layerwise as layerwise
    import repro.sampling.subgraph as subgraph

    with pytest.MonkeyPatch.context() as patch:
        for module in (base, layerwise, subgraph):
            patch.setattr(module, "build_block", build_block_reference)
        patch.setattr(base, "draw_neighbors", draw_neighbors_reference)
        patch.setattr(layers, "normalized_block_adjacency",
                      block_operator_reference)
        patch.setattr(layers, "block_attention_edges",
                      attention_edges_reference)
        patch.setattr(trainer, "EvalSubgraphCache", lambda: None)
        yield
