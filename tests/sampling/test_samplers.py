"""Unit tests for all sampler families."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph import from_edges, load_dataset
from repro.sampling import (HybridSampler, LayerWiseSampler,
                            NeighborSampler, RateSampler, SubgraphSampler,
                            draw_neighbors)


def touched(sg):
    """Distinct global vertex ids anywhere in the sample."""
    return np.unique(np.concatenate([sg.seeds]
                                    + [b.src_nodes for b in sg.blocks]))


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


@pytest.fixture()
def seeds(dataset):
    rng = np.random.default_rng(7)
    return rng.choice(dataset.train_ids, size=50, replace=False)


class TestDrawNeighbors:
    def test_respects_counts(self):
        g = from_edges([0] * 5, [1, 2, 3, 4, 5], 6, symmetrize_edges=True)
        dst, src = draw_neighbors(g, [0], [3], np.random.default_rng(0))
        assert len(dst) <= 3
        assert np.all(dst == 0)

    def test_only_real_edges(self, dataset):
        rng = np.random.default_rng(0)
        frontier = dataset.train_ids[:20]
        dst, src = draw_neighbors(dataset.graph, frontier,
                                  np.full(20, 10), rng)
        indptr, indices = dataset.graph.in_csr()
        for d, s in zip(dst[:50], src[:50]):
            assert s in indices[indptr[d]:indptr[d + 1]]

    def test_zero_degree_vertex(self):
        g = from_edges([0], [1], 3, symmetrize_edges=True)
        dst, src = draw_neighbors(g, [2], [5], np.random.default_rng(0))
        assert len(dst) == 0

    def test_misaligned_inputs(self, dataset):
        with pytest.raises(SamplingError):
            draw_neighbors(dataset.graph, [0, 1], [5],
                           np.random.default_rng(0))


class TestNeighborSampler:
    def test_layer_count_matches_fanout(self, dataset, seeds):
        sampler = NeighborSampler((10, 5, 3))
        sg = sampler.sample(dataset.graph, seeds, np.random.default_rng(0))
        assert sg.num_layers == 3
        sg.validate()

    def test_fanout_bounds_degrees(self, dataset, seeds):
        sampler = NeighborSampler((4, 4))
        sg = sampler.sample(dataset.graph, seeds, np.random.default_rng(0))
        for block in sg.blocks:
            assert block.degrees().max() <= 4

    def test_larger_fanout_more_edges(self, dataset, seeds):
        small = NeighborSampler((2, 2)).sample(
            dataset.graph, seeds, np.random.default_rng(0))
        large = NeighborSampler((20, 20)).sample(
            dataset.graph, seeds, np.random.default_rng(0))
        assert large.total_edges > small.total_edges

    def test_invalid_fanout(self):
        with pytest.raises(SamplingError):
            NeighborSampler(())
        with pytest.raises(SamplingError):
            NeighborSampler((5, 0))

    def test_empty_seeds(self, dataset):
        with pytest.raises(SamplingError):
            NeighborSampler((5,)).sample(dataset.graph, [],
                                         np.random.default_rng(0))

    def test_seeds_deduplicated(self, dataset):
        sg = NeighborSampler((5,)).sample(
            dataset.graph, [3, 3, 3], np.random.default_rng(0))
        assert len(sg.seeds) == 1


class TestRateSampler:
    def test_rate_scales_with_degree(self, dataset):
        degrees = dataset.graph.reverse().out_degrees
        hub = int(np.argmax(degrees))
        sampler = RateSampler(0.5, num_layers=1)
        sg = sampler.sample(dataset.graph, [hub], np.random.default_rng(0))
        sampled = sg.blocks[-1].degrees()[0]
        # With-replacement draws then dedup: between ~30% and 50% kept.
        assert sampled >= 0.25 * degrees[hub]
        assert sampled <= np.ceil(0.5 * degrees[hub])

    def test_min_neighbors_floor(self, dataset, seeds):
        sampler = RateSampler(0.01, num_layers=1, min_neighbors=2)
        sg = sampler.sample(dataset.graph, seeds, np.random.default_rng(0))
        degrees = dataset.graph.reverse().out_degrees[sg.blocks[-1].dst_nodes]
        sampled = sg.blocks[-1].degrees()
        assert np.all(sampled[degrees >= 2] >= 1)

    def test_invalid_rate(self):
        with pytest.raises(SamplingError):
            RateSampler(0.0)
        with pytest.raises(SamplingError):
            RateSampler(1.5)


class TestHybridSampler:
    def test_low_degree_uses_fanout(self, dataset):
        sampler = HybridSampler(fanout=(3, 3), rate=0.5,
                                degree_threshold=1000000)
        sg = sampler.sample(dataset.graph, dataset.train_ids[:30],
                            np.random.default_rng(0))
        for block in sg.blocks:
            assert block.degrees().max() <= 3

    def test_high_degree_uses_rate(self, dataset):
        degrees = dataset.graph.reverse().out_degrees
        hub = int(np.argmax(degrees))
        sampler = HybridSampler(fanout=(2, 2), rate=0.9, degree_threshold=1)
        sg = sampler.sample(dataset.graph, [hub], np.random.default_rng(0))
        assert sg.blocks[-1].degrees()[0] > 2

    def test_invalid_params(self):
        with pytest.raises(SamplingError):
            HybridSampler(fanout=(0,))
        with pytest.raises(SamplingError):
            HybridSampler(rate=0)
        with pytest.raises(SamplingError):
            HybridSampler(degree_threshold=0)


class TestLayerWiseSampler:
    def test_budget_caps_layer(self, dataset, seeds):
        sampler = LayerWiseSampler(layer_budget=64, num_layers=2)
        sg = sampler.sample(dataset.graph, seeds, np.random.default_rng(0))
        sg.validate()
        for block in sg.blocks:
            fresh = block.num_src - block.num_dst
            assert fresh <= 64

    def test_invalid_budget(self):
        with pytest.raises(SamplingError):
            LayerWiseSampler(layer_budget=0)


class TestSubgraphSampler:
    def test_confined_to_induced_subgraph(self, dataset, seeds):
        sampler = SubgraphSampler(num_layers=2, walk_padding=0.0)
        sg = sampler.sample(dataset.graph, seeds, np.random.default_rng(0))
        sg.validate()
        assert set(touched(sg)) <= set(np.asarray(seeds).tolist())

    def test_padding_adds_vertices(self, dataset, seeds):
        plain = SubgraphSampler(walk_padding=0.0).sample(
            dataset.graph, seeds, np.random.default_rng(0))
        padded = SubgraphSampler(walk_padding=1.0).sample(
            dataset.graph, seeds, np.random.default_rng(0))
        assert len(touched(padded)) >= len(touched(plain))

    def test_invalid_padding(self):
        with pytest.raises(SamplingError):
            SubgraphSampler(walk_padding=-0.5)


ALL_SAMPLERS = [NeighborSampler((3, 3)), RateSampler(0.5),
                HybridSampler(), LayerWiseSampler(32), SubgraphSampler()]


@pytest.mark.parametrize("sampler", ALL_SAMPLERS,
                         ids=lambda sampler: sampler.name)
class TestSeedRange:
    """A seed that is not a vertex is a typed error from every sampler
    (it used to be a bare ``IndexError`` out of a gather, or — negative
    — an answer for a vertex counted from the end)."""

    def test_past_the_end(self, dataset, sampler):
        n = dataset.graph.num_vertices
        with pytest.raises(SamplingError) as caught:
            sampler.sample(dataset.graph, [3, n], np.random.default_rng(0))
        assert str(caught.value) == (
            f"seed {n} is outside the graph's vertices 0..{n - 1}")

    def test_negative(self, dataset, sampler):
        n = dataset.graph.num_vertices
        with pytest.raises(SamplingError) as caught:
            sampler.sample(dataset.graph, [5, -2, 9],
                           np.random.default_rng(0))
        assert str(caught.value) == (
            f"seed -2 is outside the graph's vertices 0..{n - 1}")

    def test_both_ends_are_vertices(self, dataset, sampler):
        n = dataset.graph.num_vertices
        sg = sampler.sample(dataset.graph, [n - 1, 0, n - 1],
                            np.random.default_rng(0))
        assert list(sg.seeds) == [0, n - 1]
        sg.validate()

    def test_the_rng_is_untouched_by_a_rejected_batch(self, dataset,
                                                      sampler):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(SamplingError):
            sampler.sample(dataset.graph, [dataset.graph.num_vertices],
                           rng)
        assert rng.bit_generator.state == before


class TestDeterminism:
    def test_same_rng_same_sample(self, dataset, seeds):
        a = NeighborSampler((5, 5)).sample(dataset.graph, seeds,
                                           np.random.default_rng(3))
        b = NeighborSampler((5, 5)).sample(dataset.graph, seeds,
                                           np.random.default_rng(3))
        assert np.array_equal(a.input_nodes, b.input_nodes)
        assert a.total_edges == b.total_edges
