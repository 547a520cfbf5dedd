"""Equivalence of the shipped draw → block assembly pipeline with the
sort-based implementations it replaced (``_block_oracle.py``), on
randomized inputs.  ``draw_neighbors`` no longer orders or dedups its
pairs — ``build_block``'s one sort does — so the draw is compared at
the block level."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph.build import from_edges
from repro.perf import FLAGS, get_workspace, perf_overrides
from repro.sampling import (HybridSampler, LayerWiseSampler,
                            NeighborSampler, SubgraphSampler, build_block)
from repro.sampling.base import draw_neighbors
from repro.sampling.block import SampledBlock

from ._block_oracle import (build_block_reference,
                            draw_neighbors_reference, slow_paths)


def assert_blocks_equal(a, b):
    for name in ("dst_nodes", "src_nodes", "indptr", "indices"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_subgraphs_equal(a, b):
    assert np.array_equal(a.seeds, b.seeds)
    assert len(a.blocks) == len(b.blocks)
    for block_a, block_b in zip(a.blocks, b.blocks):
        assert_blocks_equal(block_a, block_b)


def random_graph(rng, num_vertices=400, symmetric=False):
    count = int(rng.integers(num_vertices, 6 * num_vertices))
    src = rng.integers(0, num_vertices, count)
    dst = rng.integers(0, num_vertices, count)
    return from_edges(src, dst, num_vertices, symmetrize_edges=symmetric)


class TestBuildBlockEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_edge_sets(self, seed):
        rng = np.random.default_rng(seed)
        dst = np.unique(rng.integers(0, 1000, 150))
        count = int(rng.integers(0, 2000))
        edge_dst = rng.choice(dst, count) if count else \
            np.empty(0, dtype=np.int64)
        edge_src = rng.integers(0, 1000, count)
        assert_blocks_equal(build_block(dst, edge_dst, edge_src),
                            build_block_reference(dst, edge_dst, edge_src))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_via_samplers(self, seed, symmetric):
        """Every sampler family produces identical subgraphs as shipped
        and on the oracle's slow paths, for the same rng seed."""
        graph = random_graph(np.random.default_rng(seed),
                             symmetric=symmetric)
        seeds = np.random.default_rng(seed + 50).choice(
            400, 64, replace=False)
        samplers = [NeighborSampler((5, 3)), LayerWiseSampler(64, 2),
                    SubgraphSampler(2), HybridSampler((4, 4), rate=0.3)]
        for sampler in samplers:
            fast = sampler.sample(graph, seeds,
                                  np.random.default_rng(seed + 99))
            with slow_paths():
                slow = sampler.sample(graph, seeds,
                                      np.random.default_rng(seed + 99))
            assert_subgraphs_equal(fast, slow)
            fast.validate()

    def test_duplicate_pairs_collapse_by_default(self):
        block = build_block([1, 2], [1, 1, 2, 1], [3, 3, 3, 4])
        reference = build_block_reference([1, 2], [1, 1, 2, 1],
                                          [3, 3, 3, 4])
        assert_blocks_equal(block, reference)
        assert block.num_edges == 3

    def test_unknown_destination_raises(self):
        with pytest.raises(SamplingError):
            build_block([1], [2], [3])

    def test_negative_ids_raise(self):
        with pytest.raises(SamplingError):
            build_block([1], [1], [-2])

    def test_workspace_restored_after_error(self):
        """The pooled id map returns to all -1 even when assembly
        raises (unknown destination)."""
        build_block([3, 5], [3, 5], [7, 9])  # prime the pool
        with pytest.raises(SamplingError):
            build_block([1], [2], [3])
        workspace = get_workspace()
        assert len(workspace._id_map) > 0
        lookup = workspace.borrow(1)
        try:
            assert np.all(lookup == -1)
        finally:
            workspace.release(lookup)


class TestNonCanonicalBlocksAreLoud:
    """Operators are read off a block's rows without sorting them, so
    a row that repeats or reorders a column must not pass validation
    (``check_csr(sorted_rows=True)`` alone lets a repeat through: it
    only rejects a drop)."""

    @staticmethod
    def hand_built(indices):
        return SampledBlock(dst_nodes=np.array([4, 7]),
                            src_nodes=np.array([4, 7, 9]),
                            indptr=np.array([0, 2, 3]),
                            indices=np.array(indices))

    def test_canonical_rows_pass(self):
        # A drop across the row boundary (2 -> 0) is legal.
        self.hand_built([1, 2, 0]).validate()

    @pytest.mark.parametrize("indices", [[2, 2, 0], [2, 1, 0]],
                             ids=["repeated", "descending"])
    def test_validate_rejects(self, indices):
        with pytest.raises(SamplingError, match="strictly ascending"):
            self.hand_built(indices).validate()

    def test_sanitized_build_block_validates_its_rows(self, monkeypatch):
        """The sanitized branch calls ``validate()`` beside
        ``check_csr``; the off path does not."""
        validated = []
        monkeypatch.setattr(SampledBlock, "validate",
                            lambda block: validated.append(block))
        block = build_block([4, 7], [4, 4, 7], [9, 9, 4])
        assert len(validated) == 1 and validated[0] is block
        with perf_overrides(sanitize=False):
            build_block([4, 7], [4, 4, 7], [9, 9, 4])
        assert len(validated) == 1


class TestDrawNeighborsEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_fused_dedup_matches_lexsort(self, seed):
        """Same draws from ``rng`` (its state afterwards is equal), and
        the block assembled from the raw draw is the block assembled
        from the oracle's ordered, deduplicated pairs."""
        graph = random_graph(np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 7)
        frontier = np.unique(rng.integers(0, 400, 80))
        counts = rng.integers(1, 8, len(frontier))
        fast_rng = np.random.default_rng(seed + 13)
        slow_rng = np.random.default_rng(seed + 13)
        fast = draw_neighbors(graph, frontier, counts, fast_rng)
        slow = draw_neighbors_reference(graph, frontier, counts,
                                        slow_rng)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        assert_blocks_equal(build_block(frontier, *fast),
                            build_block_reference(frontier, *slow))

    def test_flag_restored_by_context_manager(self):
        """``sanitize`` is the one flag block assembly still reads."""
        assert FLAGS.sanitize
        with perf_overrides(sanitize=False):
            assert not FLAGS.sanitize
        assert FLAGS.sanitize
