"""Property-based tests for the full-batch engine's accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import FullBatchEngine
from repro.graph import power_law_graph, split_vertices
from repro.graph.datasets import DATASET_SPECS, Dataset
from repro.nn import Adam, build_model
from repro.partition import HashPartitioner, MetisPartitioner
from repro.transfer import DEFAULT_SPEC

from ._fullbatch_oracle import FullBatchEngine as OracleEngine


def build_case(n, degree, parts, seed, partitioner=None):
    rng = np.random.default_rng(seed)
    graph, comm = power_law_graph(n, degree, rng, num_communities=4)
    features = rng.normal(size=(n, 8)).astype(np.float32)
    labels = rng.integers(0, 4, size=n)
    dataset = Dataset(spec=DATASET_SPECS["ogb-arxiv"], graph=graph,
                      features=features, labels=labels,
                      split=split_vertices(n, rng), communities=comm)
    partition = (partitioner or HashPartitioner()).partition(
        graph, parts, split=dataset.split, rng=np.random.default_rng(seed))
    model = build_model("gcn", 8, 4, num_layers=2, hidden_dim=16,
                        rng=np.random.default_rng(seed), dropout=0.0)
    engine = FullBatchEngine(dataset, partition, model,
                             Adam(model.parameters(), lr=0.01),
                             spec=DEFAULT_SPEC)
    return dataset, partition, engine


@st.composite
def engine_cases(draw):
    n = draw(st.integers(min_value=30, max_value=120))
    degree = draw(st.integers(min_value=2, max_value=6))
    parts = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, degree, parts, seed


class TestFullBatchInvariants:
    @given(engine_cases())
    @settings(max_examples=15, deadline=None)
    def test_edges_partition_across_machines(self, case):
        n, degree, parts, seed = case
        dataset, _partition, engine = build_case(n, degree, parts, seed)
        # Every aggregation row lives on exactly one machine, so the
        # per-machine edge counts sum to the full operator's nnz.
        assert engine.edges_per_machine.sum() == engine.adjacency.nnz

    @given(engine_cases())
    @settings(max_examples=15, deadline=None)
    def test_boundaries_are_strictly_remote(self, case):
        n, degree, parts, seed = case
        _dataset, partition, engine = build_case(n, degree, parts, seed)
        for part, boundary in enumerate(engine.boundary):
            assert np.all(partition.assignment[boundary] != part)

    @given(engine_cases())
    @settings(max_examples=10, deadline=None)
    def test_epoch_accounting_consistent(self, case):
        n, degree, parts, seed = case
        _dataset, _partition, engine = build_case(n, degree, parts, seed)
        stats = engine.run_epoch(None, None, epoch=0)
        assert stats.epoch_seconds == pytest.approx(
            stats.nn_seconds + stats.dt_seconds
            + stats.allreduce_seconds)
        assert stats.num_steps == 1
        assert np.isfinite(stats.loss)

    @given(engine_cases())
    @settings(max_examples=8, deadline=None)
    def test_owned_vertices_partition(self, case):
        n, degree, parts, seed = case
        _dataset, _partition, engine = build_case(n, degree, parts, seed)
        covered = np.concatenate(engine.owned)
        assert len(covered) == n
        assert len(np.unique(covered)) == n

    @given(engine_cases(), st.sampled_from(["hash", "metis-ve"]))
    @settings(max_examples=10, deadline=None)
    def test_boundaries_are_the_one_hop_halo(self, case, method):
        """The vectorized halo equals the per-vertex in-neighbor walk
        it replaced."""
        n, degree, parts, seed = case
        partitioner = (HashPartitioner() if method == "hash"
                       else MetisPartitioner("ve"))
        dataset, partition, engine = build_case(n, degree, parts, seed,
                                                partitioner)
        walk = OracleEngine(dataset, partition, engine.model,
                            engine.optimizer, spec=DEFAULT_SPEC)
        for part in range(parts):
            assert np.array_equal(engine.boundary[part],
                                  walk.boundary[part])


@pytest.mark.parametrize("method", ["hash", "metis-ve"])
@pytest.mark.parametrize("n", [550, 2200])
def test_boundaries_are_the_one_hop_halo_at_size(method, n):
    partitioner = (HashPartitioner() if method == "hash"
                   else MetisPartitioner("ve"))
    dataset, partition, engine = build_case(n, 5, 4, 11, partitioner)
    walk = OracleEngine(dataset, partition, engine.model, engine.optimizer,
                        spec=DEFAULT_SPEC)
    for part in range(4):
        assert np.array_equal(engine.boundary[part], walk.boundary[part])

