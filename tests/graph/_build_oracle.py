"""The two-key lexsort graph construction, kept verbatim as the oracle.

``from_edges_reference`` below is the body of
``repro.graph.build.from_edges`` before edge lists became CSR by one
sort of packed ``(src << shift) | dst`` keys: a ``np.lexsort`` over the
two id arrays, a two-array neighbour compare to dedup, and ``bincount``
/ ``cumsum`` for ``indptr``.  It defines the CSR arrays (row order,
column order, dedup) the shipped builder must reproduce byte for byte;
``test_build_oracle.py`` runs both on generated edge lists.  Do not "fix" or speed up anything here.
"""

import numpy as np

from repro.perf.sanitize import check_csr
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.perf.flags import FLAGS


def from_edges_reference(src, dst, num_vertices, symmetrize_edges=False,
                         dedup=True, drop_self_loops=True):
    """Lexsort-based :func:`repro.graph.from_edges`."""
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if len(src) != len(dst):
        raise GraphError(
            f"src and dst lengths differ: {len(src)} vs {len(dst)}")
    n = int(num_vertices)
    if len(src):
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= n:
            raise GraphError(
                f"edge endpoint out of range [0, {n}): saw [{lo}, {hi}]")

    if drop_self_loops and len(src):
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if symmetrize_edges and len(src):
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])

    if len(src):
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if dedup:
            keep = np.concatenate(
                ([True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])))
            src, dst = src[keep], dst[keep]

    counts = np.bincount(src, minlength=n) if len(src) else np.zeros(
        n, dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    if FLAGS.sanitize:
        # Loud structural validation at the single sanctioned CSR
        # construction site; rows are sorted by the lexsort above.
        check_csr(indptr, dst, n, name="from_edges",
                  sorted_rows=bool(len(src)))
    return CSRGraph(indptr, dst, num_vertices=n,
                    is_symmetric=symmetrize_edges, validate=False)
