"""Structural graph metrics used throughout the evaluation.

The paper leans on two metrics repeatedly:

* the **local clustering coefficient** (Watts–Strogatz) — its per-partition
  variance quantifies the density imbalance of streaming partitioners
  (§5.3.1) and of cluster-based batches (§6.3.2);
* **degree skew** — power-law vs. flat degree distributions separate the
  cache-policy regimes of Figure 17.

Only :func:`to_scipy` and :func:`local_clustering_coefficients` use
scipy, and they import ``scipy.sparse`` on first call: the paper-table
scripts call them, the library's runs never do.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "to_scipy",
    "local_clustering_coefficients",
    "degree_gini",
    "is_power_law",
]


def to_scipy(graph):
    """The graph's adjacency as a ``scipy.sparse.csr_matrix`` of 0/1."""
    import scipy.sparse as sp

    n = graph.num_vertices
    data = np.ones(graph.num_edges, dtype=np.float64)
    return sp.csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))


def local_clustering_coefficients(graph):
    """Per-vertex local clustering coefficient.

    For vertex ``v`` with degree ``d >= 2``:
    ``c_v = triangles(v) / (d * (d - 1) / 2)``; vertices with ``d < 2``
    get 0.  Directed graphs are treated as their symmetrized version.
    """
    adj = to_scipy(graph)
    if not graph.is_symmetric:
        adj = adj.maximum(adj.T)
    adj.setdiag(0)
    adj.eliminate_zeros()
    adj.data[:] = 1.0
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    # triangles(v) = (A^2 ∘ A) row-sum / 2 for a simple undirected graph.
    paths2 = (adj @ adj).multiply(adj)
    tri = np.asarray(paths2.sum(axis=1)).ravel() / 2.0
    denom = degrees * (degrees - 1) / 2.0
    coeff = np.zeros(graph.num_vertices, dtype=np.float64)
    mask = denom > 0
    coeff[mask] = tri[mask] / denom[mask]
    return coeff


def degree_gini(graph):
    """Gini coefficient of the out-degree distribution (0 = flat,
    approaching 1 = extremely skewed)."""
    degrees = np.sort(graph.out_degrees.astype(np.float64))
    n = len(degrees)
    total = degrees.sum()
    if n == 0 or total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * degrees).sum()) / (n * total) - (n + 1) / n)


def is_power_law(graph, gini_threshold=0.30):
    """Heuristic power-law check: a Gini coefficient above the threshold
    marks the degree distribution as skewed/power-law."""
    return degree_gini(graph) >= gini_threshold
