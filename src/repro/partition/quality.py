"""Partition quality metrics.

These are the structural statistics §5.3 reads off a partitioning before
any training happens: edge cut, balance ratios per vertex class, storage
replication, and the per-partition clustering-coefficient variance the
paper uses to explain streaming partitioners' computational imbalance
("the variance of the clustering coefficient of the Hash partition graph
is only 3.6e-6, while the variances of Stream-V and Stream-B are 0.01 and
0.03").
"""

from __future__ import annotations

import numpy as np

__all__ = ["edge_cut", "edge_cut_fraction", "balance_ratio",
           "clustering_coefficient_variance", "quality_report"]


def edge_cut(graph, assignment):
    """Number of directed edges crossing partitions."""
    src, dst = graph.edges()
    assignment = np.asarray(assignment)
    return int((assignment[src] != assignment[dst]).sum())


def edge_cut_fraction(graph, assignment):
    """Fraction of edges crossing partitions (0 = perfectly local)."""
    if graph.num_edges == 0:
        return 0.0
    return edge_cut(graph, assignment) / graph.num_edges


def balance_ratio(assignment, num_parts, weights=None):
    """``max load / mean load`` over partitions (1.0 = perfect balance).

    ``weights`` defaults to 1 per vertex (count balance); pass e.g. a
    train mask or degrees to measure that dimension's balance.
    """
    assignment = np.asarray(assignment)
    if weights is None:
        weights = np.ones(len(assignment))
    loads = np.zeros(num_parts)
    np.add.at(loads, assignment, np.asarray(weights, dtype=np.float64))
    mean = loads.mean()
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)


def clustering_coefficient_variance(graph, result):
    """Variance, across partitions, of the mean local clustering
    coefficient of each partition's *owned* vertices — the paper's
    density-imbalance metric (§5.3.1).

    Random (hash) assignment gives every partition a statistically
    identical vertex sample, so the variance is tiny; structure-following
    assignment (streaming) concentrates dense regions in some partitions
    and drives the variance up.
    """
    from ..graph.metrics import local_clustering_coefficients
    coeffs = local_clustering_coefficients(graph)
    values = []
    for part in range(result.num_parts):
        vertices = result.part_vertices(part)
        values.append(coeffs[vertices].mean() if len(vertices) else 0.0)
    return float(np.var(values))


def quality_report(graph, result, split=None):
    """One dict summarizing a partitioning's structural quality."""
    report = {
        "method": result.method,
        "num_parts": result.num_parts,
        "edge_cut_fraction": edge_cut_fraction(graph, result.assignment),
        "vertex_balance": balance_ratio(result.assignment, result.num_parts),
        "degree_balance": balance_ratio(
            result.assignment, result.num_parts,
            graph.out_degrees.astype(np.float64)),
        "replication_factor": result.replication_factor(),
        "seconds": result.seconds,
    }
    if split is not None:
        report["train_balance"] = balance_ratio(
            result.assignment, result.num_parts,
            split.train_mask.astype(np.float64))
    return report
