"""Constructing :class:`~repro.graph.csr.CSRGraph` objects from edge lists.

These helpers are the only sanctioned way to turn raw ``(src, dst)`` pairs
into graphs: they sort, deduplicate, optionally symmetrize, and emit clean
CSR arrays.
"""

from __future__ import annotations

import numpy as np

from ..perf.sanitize import check_csr
from ..errors import GraphError
from ..perf.flags import FLAGS
from ..perf.unique import sorted_unique
from .csr import CSRGraph, packed_csr

__all__ = ["from_edges"]

#: The largest ``num_vertices``: ``(n - 1) << shift | (n - 1)`` with
#: ``shift = (n - 1).bit_length()`` must stay below ``2**63``.
_MAX_VERTICES = 1 << 31


def from_edges(src, dst, num_vertices, symmetrize_edges=False,
               dedup=True, drop_self_loops=True):
    """Build a :class:`CSRGraph` from parallel ``src``/``dst`` arrays.

    Parameters
    ----------
    src, dst:
        Integer arrays of equal length with vertex ids in
        ``[0, num_vertices)``.
    num_vertices:
        Total vertex count ``n`` (isolated vertices allowed), at most
        ``2**31``: the bound of the packed ``int64`` edge key.
    symmetrize_edges:
        Also add every reverse edge and mark the graph symmetric.
    dedup:
        Remove duplicate edges.
    drop_self_loops:
        Remove edges with ``src == dst``.
    """
    src, dst = _vertex_ids(src), _vertex_ids(dst)
    if len(src) != len(dst):
        raise GraphError(
            f"src and dst lengths differ: {len(src)} vs {len(dst)}")
    n = int(num_vertices)
    if not 0 <= n <= _MAX_VERTICES:
        raise GraphError(
            f"num_vertices must lie in [0, 2**31], the bound of the "
            f"packed int64 edge key; got {n}")
    if len(src):
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= n:
            raise GraphError(
                f"edge endpoint out of range [0, {n}): saw [{lo}, {hi}]")

    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    # One sort of packed (src << shift) | dst keys orders the edges into
    # rows; equal keys are equal pairs, so a neighbour compare dedups.
    shift = max(n - 1, 1).bit_length()
    key = (src << shift) | dst
    if symmetrize_edges:
        key = np.concatenate([key, (dst << shift) | src])
    if dedup:
        key = sorted_unique(key)
    else:
        key.sort()
    indptr, indices = packed_csr(key, n, shift)
    if FLAGS.sanitize:
        # Loud structural validation at the single sanctioned CSR
        # construction site; rows are sorted by the key sort above.
        check_csr(indptr, indices, n, name="from_edges", sorted_rows=True)
    return CSRGraph(indptr, indices, num_vertices=n,
                    is_symmetric=symmetrize_edges, validate=False)


def _vertex_ids(values):
    """``values`` as flat int64 ids.  A fractional, nan or infinite id
    raises instead of truncating into an edge nobody asked for."""
    values = np.asarray(values).ravel()
    with np.errstate(invalid="ignore"):
        ids = values.astype(np.int64, copy=False)
    if values.dtype.kind not in "biu" and not np.array_equal(ids, values):
        raise GraphError(f"vertex ids must be integers, got {values.dtype}")
    return ids
