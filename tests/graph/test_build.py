"""Unit tests for graph construction helpers."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import from_edges


class TestFromEdges:
    def test_dedup(self):
        g = from_edges([0, 0, 0], [1, 1, 2], 3)
        assert g.num_edges == 2

    def test_keep_duplicates_when_disabled(self):
        g = from_edges([0, 0], [1, 1], 2, dedup=False)
        assert g.num_edges == 2

    def test_self_loops_dropped(self):
        g = from_edges([0, 1], [0, 0], 2)
        assert g.num_edges == 1

    def test_self_loops_kept_when_asked(self):
        g = from_edges([0], [0], 1, drop_self_loops=False)
        assert g.num_edges == 1
        assert g.has_edge(0, 0)

    def test_symmetrize_flag(self):
        g = from_edges([0], [1], 2, symmetrize_edges=True)
        assert g.is_symmetric
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_length_mismatch(self):
        with pytest.raises(GraphError):
            from_edges([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            from_edges([0], [5], 2)

    def test_negative_id(self):
        with pytest.raises(GraphError):
            from_edges([-1], [0], 2)

    def test_negative_vertex_count(self):
        with pytest.raises(GraphError, match="num_vertices"):
            from_edges([], [], -3)

    def test_fractional_id(self):
        """Truncating 0.5 to 0 would build an edge nobody asked for."""
        with pytest.raises(GraphError, match="integers"):
            from_edges([0.5], [1], 3)
        with pytest.raises(GraphError, match="integers"):
            from_edges([0], [np.nan], 3)

    def test_integral_float_ids_accepted(self):
        g = from_edges(np.array([0.0, 2.0]), [1, 1], 3)
        assert g == from_edges([0, 2], [1, 1], 3)

    def test_vertex_count_past_packed_key_bound(self):
        """``(n - 1) << shift | (n - 1)`` must fit in int64; the check
        runs before anything of size ``n`` is allocated."""
        with pytest.raises(GraphError, match=r"2\*\*31"):
            from_edges([0], [1], 2**31 + 1)

    def test_sorted_rows(self):
        g = from_edges([1, 0, 1, 0], [0, 2, 2, 1], 3)
        assert list(g.out_neighbors(0)) == [1, 2]
        assert list(g.out_neighbors(1)) == [0, 2]
