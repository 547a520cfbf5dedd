"""Equivalence of the shipped block assembly and pair dedup with the
sort-based implementations they replaced (``_block_oracle.py``), on
randomized inputs."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph.build import from_edges
from repro.perf import FLAGS, get_workspace, perf_overrides
from repro.sampling import (HybridSampler, LayerWiseSampler,
                            NeighborSampler, SubgraphSampler, build_block)
from repro.sampling.base import draw_neighbors

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

    def test_assume_deduped_skips_collapse(self):
        # With duplicate pairs, assume_deduped keeps them (the caller's
        # promise was violated) — documents why the flag is only safe
        # straight out of draw_neighbors.
        block = build_block([1], [1, 1], [2, 2], assume_deduped=True)
        assert block.num_edges == 2
        assert build_block([1], [1, 1], [2, 2]).num_edges == 1

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
        assert workspace.id_map_capacity > 0
        with workspace.id_map(1) as lookup:
            assert np.all(lookup == -1)


class TestDrawNeighborsEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_fused_dedup_matches_lexsort(self, seed):
        graph = random_graph(np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 7)
        frontier = np.unique(rng.integers(0, 400, 80))
        counts = rng.integers(1, 8, len(frontier))
        fast = draw_neighbors(graph, frontier, counts,
                              np.random.default_rng(seed + 13))
        slow = draw_neighbors_reference(graph, frontier, counts,
                                        np.random.default_rng(seed + 13))
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])

    def test_too_many_vertices_is_a_typed_error(self):
        """The packed ``dst * V + src`` key needs V < 2**31; beyond it
        the draw refuses instead of overflowing int64."""
        class Huge:
            num_vertices = 2 ** 31

        with pytest.raises(SamplingError, match="2\\*\\*31"):
            draw_neighbors(Huge(), [0], [1], np.random.default_rng(0))

    def test_flag_restored_by_context_manager(self):
        """``sanitize`` is the one flag block assembly still reads."""
        assert FLAGS.sanitize
        with perf_overrides(sanitize=False):
            assert not FLAGS.sanitize
        assert FLAGS.sanitize
