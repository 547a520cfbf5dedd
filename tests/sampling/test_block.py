"""Unit tests for sampled-block structures."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.perf import Workspace, get_workspace
from repro.sampling import SampledSubgraph, build_block


class TestBuildBlock:
    def test_simple_block(self):
        block = build_block([5, 7], [5, 5, 7], [7, 9, 11])
        assert list(block.dst_nodes) == [5, 7]
        # Sources: destinations first, then the new vertices.
        assert list(block.src_nodes[:2]) == [5, 7]
        assert set(block.src_nodes) == {5, 7, 9, 11}
        assert block.num_edges == 3
        block.validate()

    def test_dedup_edges(self):
        block = build_block([1], [1, 1, 1], [2, 2, 3])
        assert block.num_edges == 2

    def test_empty_edges(self):
        block = build_block([3], [], [])
        assert block.num_edges == 0
        assert block.num_src == 1
        block.validate()

    def test_degrees(self):
        block = build_block([1, 2], [1, 1, 2], [3, 4, 3])
        assert list(block.degrees()) == [2, 1]

    def test_self_loop_edge_allowed(self):
        block = build_block([1], [1], [1])
        assert block.num_edges == 1
        assert block.indices[0] == 0  # local id of vertex 1

    def test_unknown_destination_raises(self):
        with pytest.raises(SamplingError):
            build_block([1], [2], [3])

    def test_mismatched_arrays(self):
        with pytest.raises(SamplingError):
            build_block([1], [1, 1], [2])

    def test_validate_catches_src_order_violation(self):
        block = build_block([1, 2], [1], [3])
        block.src_nodes = block.src_nodes[::-1].copy()
        with pytest.raises(SamplingError):
            block.validate()


NEGATIVE = "vertex ids must be non-negative"
UNKNOWN_DST = "edge destination not found in block vertices"
UNEQUAL = "edge arrays must have equal length"


def pool_is_clean():
    """The pooled id map is free again and all -1."""
    workspace = get_workspace()
    lookup = workspace.borrow(1)
    try:
        return lookup is workspace._id_map and bool(np.all(lookup == -1))
    finally:
        workspace.release(lookup)


class TestBuildBlockErrorContract:
    """Hostile inputs: which ``SamplingError`` each raises (the range
    check reads ids as unsigned, so this pins what it must still say)
    and that the pooled id map survives every one of them."""

    @pytest.mark.parametrize("args, message", [
        (([1, -4], [1], [2]), NEGATIVE),            # dst_nodes
        (([1, 2], [1, -2], [3, 3]), NEGATIVE),      # edge_dst
        (([1, 2], [1, 2], [3, -1]), NEGATIVE),      # edge_src
        (([-1], [], []), NEGATIVE),                 # ... with no edges
        (([1, 2], [1, 2],
          [3, np.iinfo(np.int64).min]), NEGATIVE),
        (([1, 2], [1, 5], [3, 3]), UNKNOWN_DST),    # 5 is no destination
        (([], [4], [4]), UNKNOWN_DST),              # nothing is
        (([1], [1, 1], [2]), UNEQUAL),
        (([1], [], [2]), UNEQUAL),
        # Length is checked before range.
        (([-1], [1, 1], [2]), UNEQUAL),
    ])
    def test_message(self, args, message):
        build_block([3, 5], [3, 5], [7, 9])         # prime the pool
        with pytest.raises(SamplingError) as caught:
            build_block(*args)
        assert str(caught.value) == message
        assert pool_is_clean()

    def test_largest_id_is_not_mistaken_for_negative(self):
        big = 3000
        block = build_block([big], [big], [big - 1])
        assert list(block.src_nodes) == [big, big - 1]
        assert pool_is_clean()

    def test_empty_inputs_build_empty_blocks(self):
        block = build_block([3, 1], [], [])
        assert block.num_edges == 0 and list(block.indptr) == [0, 0, 0]
        assert list(block.src_nodes) == [3, 1]
        empty = build_block([], [], [])
        assert empty.num_dst == empty.num_src == empty.num_edges == 0
        assert list(empty.indptr) == [0]
        empty.validate()
        assert pool_is_clean()

    def test_error_mid_borrow_restores_what_was_written(self):
        """The unknown destination is found after the destinations'
        slots were written: ``finally`` must still clear them."""
        with pytest.raises(SamplingError, match=UNKNOWN_DST):
            build_block([11, 13, 17], [11, 12], [13, 19])
        workspace = get_workspace()
        lookup = workspace.borrow(20)
        try:
            assert np.all(lookup[:20] == -1)
        finally:
            workspace.release(lookup)

    def test_nested_borrow_takes_the_contended_path(self, monkeypatch):
        """A block built while the pool is lent out works on a private
        table; its error leaves the lender's entries alone and the pool
        still busy, and the lender's release frees it."""
        workspace = get_workspace()
        lent = []
        borrow = Workspace.borrow

        def spy(pool, capacity):
            lent.append(borrow(pool, capacity))
            return lent[-1]

        monkeypatch.setattr(Workspace, "borrow", spy)
        outer = workspace.borrow(32)
        try:
            outer[7] = 5
            inner = build_block([7, 8], [7, 8], [9, 7])
            assert list(inner.src_nodes) == [7, 8, 9]
            with pytest.raises(SamplingError, match=UNKNOWN_DST):
                build_block([7], [8], [9])
            with pytest.raises(SamplingError, match=NEGATIVE):
                build_block([7], [7], [-9])
            assert workspace._id_map_busy
            assert outer[7] == 5 and np.all(outer[8:32] == -1)
            outer[7] = -1
        finally:
            workspace.release(outer)
        # The range check comes before the borrow: two nested borrows,
        # each on a fresh table.
        assert len(lent) == 3 and lent[0] is workspace._id_map
        assert all(table is not outer for table in lent[1:])
        assert pool_is_clean()


class TestSampledSubgraph:
    def build_two_layer(self):
        outer = build_block([1], [1, 1], [2, 3])
        inner = build_block(outer.src_nodes, [2, 3], [4, 5])
        return SampledSubgraph(seeds=np.array([1]), blocks=[inner, outer])

    def test_chaining_validates(self):
        sg = self.build_two_layer()
        sg.validate()

    def test_input_nodes_deepest_layer(self):
        sg = self.build_two_layer()
        assert set(sg.input_nodes) == {1, 2, 3, 4, 5}

    def test_total_edges(self):
        sg = self.build_two_layer()
        assert sg.total_edges == 4

    def test_broken_chain_detected(self):
        outer = build_block([1], [1], [2])
        inner = build_block([9, 9], [], [])  # wrong dst set
        sg = SampledSubgraph(seeds=np.array([1]), blocks=[inner, outer])
        with pytest.raises(SamplingError):
            sg.validate()

    def test_wrong_seed_block_detected(self):
        outer = build_block([2], [2], [3])
        sg = SampledSubgraph(seeds=np.array([1]), blocks=[outer])
        with pytest.raises(SamplingError):
            sg.validate()
