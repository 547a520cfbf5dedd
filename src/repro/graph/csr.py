"""Compressed sparse row (CSR) graph storage.

:class:`CSRGraph` is the single graph representation used everywhere in the
library.  It stores the *out*-adjacency in CSR form and lazily derives the
*in*-adjacency (CSC of the same matrix) the first time it is needed.  GNN
aggregation reads in-neighbors; samplers and partitioners mostly read
out-neighbors.  For the (common) symmetric graphs produced by our
generators the two coincide and the lazy transpose is skipped.

Vertices are dense integer ids ``0..n-1``.  Edges are directed pairs
``(src, dst)``; an undirected graph is represented by storing both
directions and flagging :attr:`CSRGraph.is_symmetric`.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError

__all__ = ["CSRGraph", "packed_csr"]


def packed_csr(key, num_rows, shift):
    """CSR ``(indptr, indices)`` read off ascending packed edge keys.

    ``key`` holds ``(row << shift) | col`` sorted, so row ``r`` is the
    key range ``[r << shift, (r + 1) << shift)``: one search per row
    boundary gives ``indptr`` and a mask unpacks the columns.  Every
    edge-list-to-CSR site shares this idiom (docs/architecture.md,
    "Packed edge keys").
    """
    bounds = np.arange(num_rows + 1, dtype=np.int64) << shift
    return key.searchsorted(bounds), key & ((1 << shift) - 1)


class CSRGraph:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; ``indices[indptr[v]:indptr[v+1]]``
        are the out-neighbors of vertex ``v``.
    indices:
        ``int64`` array of length ``m`` holding destination vertex ids.
    num_vertices:
        Number of vertices ``n``.  Defaults to ``len(indptr) - 1``.
    is_symmetric:
        Declare the adjacency symmetric (undirected).  When true the
        in-adjacency aliases the out-adjacency and no transpose is built.
    validate:
        Run structural validation (sorted indptr, ids in range).  Cheap
        relative to construction; disable only in hot internal paths.
    """

    __slots__ = ("indptr", "indices", "is_symmetric", "_n", "_in_indptr",
                 "_in_indices", "_out_degrees")

    def __init__(self, indptr, indices, num_vertices=None,
                 is_symmetric=False, validate=True):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self._n = int(num_vertices if num_vertices is not None
                      else len(self.indptr) - 1)
        self.is_symmetric = bool(is_symmetric)
        self._in_indptr = None
        self._in_indices = None
        self._out_degrees = None
        if validate:
            self._validate()

    def _validate(self):
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise GraphError("indptr and indices must be 1-D arrays")
        if len(self.indptr) != self._n + 1:
            raise GraphError(
                f"indptr has length {len(self.indptr)}, expected "
                f"{self._n + 1} for {self._n} vertices")
        if self._n < 0:
            raise GraphError("negative vertex count")
        if len(self.indptr) and self.indptr[0] != 0:
            raise GraphError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if len(self.indptr) and self.indptr[-1] != len(self.indices):
            raise GraphError(
                f"indptr[-1]={self.indptr[-1]} does not match "
                f"len(indices)={len(self.indices)}")
        if len(self.indices) and (self.indices.min() < 0
                                  or self.indices.max() >= self._n):
            raise GraphError("edge destination out of range")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self):
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self):
        """Number of directed edges ``m`` (an undirected edge counts twice)."""
        return len(self.indices)

    @property
    def out_degrees(self):
        """``int64`` array of out-degrees, computed once and cached."""
        if self._out_degrees is None:
            self._out_degrees = np.diff(self.indptr)
        return self._out_degrees

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def out_neighbors(self, v):
        """Out-neighbors of vertex ``v`` as a (read-only view) array."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def in_neighbors(self, v):
        """In-neighbors of vertex ``v``; builds the transpose on first use."""
        if self.is_symmetric:
            return self.out_neighbors(v)
        indptr, indices = self._in_adjacency()
        return indices[indptr[v]:indptr[v + 1]]

    def _in_adjacency(self):
        """Return ``(in_indptr, in_indices)``, building them on first use."""
        if self.is_symmetric:
            return self.indptr, self.indices
        if self._in_indptr is None:
            from ..kernels.adjacency import transpose_csr
            self._in_indptr, self._in_indices, _ = transpose_csr(
                self.indptr, self.indices, num_cols=self._n)
        return self._in_indptr, self._in_indices

    def in_csr(self):
        """The in-adjacency as ``(indptr, indices)`` CSR arrays."""
        return self._in_adjacency()

    def edges(self):
        """All edges as ``(src, dst)`` int64 arrays of length ``m``."""
        src = np.repeat(np.arange(self._n, dtype=np.int64), self.out_degrees)
        return src, self.indices.copy()

    def has_edge(self, u, v):
        """True if the directed edge ``(u, v)`` exists."""
        row = self.out_neighbors(u)
        # Rows are not guaranteed sorted; linear scan on a small row.
        return bool(np.any(row == v))

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def reverse(self):
        """The graph with every edge reversed."""
        if self.is_symmetric:
            return self
        indptr, indices = self._in_adjacency()
        return CSRGraph(indptr.copy(), indices.copy(), num_vertices=self._n,
                        is_symmetric=False, validate=False)

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self):
        kind = "undirected" if self.is_symmetric else "directed"
        return (f"CSRGraph(n={self._n}, m={self.num_edges}, {kind})")

    def __eq__(self, other):
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (self._n == other._n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self._n, self.num_edges,
                     self.indices[:16].tobytes() if self.num_edges else b""))
