"""Unit tests for CSR graph storage."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import CSRGraph, from_edges


def triangle():
    # 0 -> 1, 1 -> 2, 2 -> 0
    return from_edges([0, 1, 2], [1, 2, 0], 3)


class TestConstruction:
    def test_basic_counts(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_empty_graph(self):
        g = from_edges([], [], 5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert np.array_equal(g.out_degrees, np.zeros(5, dtype=np.int64))

    def test_indptr_mismatch_raises(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0]), num_vertices=3)

    def test_indices_out_of_range_raises(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([7]), num_vertices=1)

    def test_decreasing_indptr_raises(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 0]), num_vertices=2)

    def test_nonzero_first_indptr_raises(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0, 0]), num_vertices=1)


class TestAdjacency:
    def test_out_neighbors(self):
        g = triangle()
        assert list(g.out_neighbors(0)) == [1]
        assert list(g.out_neighbors(2)) == [0]

    def test_in_neighbors_directed(self):
        g = triangle()
        assert list(g.in_neighbors(1)) == [0]
        assert list(g.in_neighbors(0)) == [2]

    def test_in_neighbors_symmetric_alias(self):
        g = from_edges([0, 1], [1, 2], 3, symmetrize_edges=True)
        assert sorted(g.in_neighbors(1)) == sorted(g.out_neighbors(1)) == [0, 2]

    def test_degrees(self):
        g = from_edges([0, 0, 1], [1, 2, 2], 3)
        assert list(g.out_degrees) == [2, 1, 0]
        assert list(g.reverse().out_degrees) == [0, 1, 2]

    def test_has_edge(self):
        g = triangle()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edges_roundtrip(self):
        g = from_edges([0, 0, 2], [1, 2, 1], 3)
        src, dst = g.edges()
        rebuilt = from_edges(src, dst, 3)
        assert rebuilt == g


class TestDerived:
    def test_reverse(self):
        g = triangle()
        rev = g.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)

    def test_reverse_symmetric_is_self(self):
        g = from_edges([0], [1], 2, symmetrize_edges=True)
        assert g.reverse() is g

    def test_repr(self):
        assert "n=3" in repr(triangle())
