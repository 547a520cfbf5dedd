"""Unit tests for full-batch distributed training and staleness."""

import numpy as np
import pytest

from repro import Trainer, TrainingConfig, make_sampler
from repro.dist import FullBatchEngine, FullGraph, SyncEngine
from repro.errors import TrainingError
from repro.graph import load_dataset
from repro.kernels import full_graph_adjacency
from repro.nn import Adam, Tensor, build_model
from repro.partition import HashPartitioner, MetisPartitioner
from repro.sampling import NeighborSampler
from repro.transfer import DEFAULT_SPEC, ZeroCopy

from ._fullbatch_oracle import FullBatchEngine as OracleEngine


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


@pytest.fixture(scope="module")
def partition(dataset):
    return MetisPartitioner("ve").partition(
        dataset.graph, 3, split=dataset.split,
        rng=np.random.default_rng(0))


def build_engine(dataset, partition, staleness=0, seed=1, lr=0.01):
    model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                        num_layers=2, hidden_dim=64,
                        rng=np.random.default_rng(seed))
    return FullBatchEngine(dataset, partition, model,
                           Adam(model.parameters(), lr=lr),
                           spec=DEFAULT_SPEC, staleness=staleness)


def run(engine, epochs):
    """Per-epoch stats of ``epochs`` full-batch epochs from epoch 0."""
    return [engine.run_epoch(None, None, epoch=epoch)
            for epoch in range(epochs)]


class TestAggregationMatrix:
    def test_rows_sum_to_one(self, dataset):
        matrix = full_graph_adjacency(dataset.graph)
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-5)

    def test_shape(self, dataset):
        matrix = full_graph_adjacency(dataset.graph)
        n = dataset.num_vertices
        assert matrix.shape == (n, n)

    @pytest.mark.parametrize("self_loops", [True, False])
    def test_bit_identical_to_scipy_construction(self, dataset,
                                                 self_loops):
        """The numpy construction must reproduce the historical scipy
        ``diags(1/deg) @ (csr + identity)`` operator bit-for-bit —
        structure and float32 values — or full-batch training curves
        drift from every pinned golden result."""
        sp = pytest.importorskip("scipy.sparse")
        graph = dataset.graph
        n = graph.num_vertices
        in_indptr, in_indices = graph.in_csr()
        reference = sp.csr_matrix(
            (np.ones(len(in_indices), dtype=np.float32),
             in_indices.astype(np.int64), in_indptr.astype(np.int64)),
            shape=(n, n))
        if self_loops:
            reference = reference + sp.identity(
                n, dtype=np.float32, format="csr")
        degree = np.asarray(reference.sum(axis=1)).ravel()
        degree[degree == 0] = 1.0
        scale = sp.diags((1.0 / degree).astype(np.float32))
        reference = (scale @ reference).tocsr()

        matrix = full_graph_adjacency(graph, self_loops=self_loops)
        assert matrix.shape == reference.shape
        assert np.array_equal(matrix.indptr, reference.indptr)
        assert np.array_equal(matrix.indices, reference.indices)
        assert np.array_equal(matrix.data, reference.data)


class TestFullBatchEngine:
    def test_one_update_per_epoch(self, dataset, partition):
        engine = build_engine(dataset, partition)
        stats, = run(engine, 1)
        assert stats.num_steps == 1
        assert stats.batch_size == len(dataset.train_ids)

    def test_learns(self, dataset, partition):
        engine = build_engine(dataset, partition)
        run(engine, 15)
        accuracy = engine.evaluate(dataset.val_ids)
        assert accuracy > 5.0 / dataset.num_classes

    def test_loss_decreases(self, dataset, partition):
        engine = build_engine(dataset, partition)
        losses = [stats.loss for stats in run(engine, 9)]
        assert losses[-1] < losses[0]

    def test_boundary_sets_are_remote(self, dataset, partition):
        engine = build_engine(dataset, partition)
        for part, boundary in enumerate(engine.boundary):
            assert np.all(partition.assignment[boundary] != part)

    def test_single_machine_no_comm(self, dataset):
        solo = HashPartitioner().partition(dataset.graph, 1,
                                           rng=np.random.default_rng(0))
        engine = build_engine(dataset, solo)
        stats, = run(engine, 1)
        assert stats.dt_seconds == 0.0
        assert stats.allreduce_seconds == 0.0

    def test_negative_staleness_rejected(self, dataset, partition):
        with pytest.raises(TrainingError):
            build_engine(dataset, partition, staleness=-1)


class TestStaleness:
    def test_stale_epochs_skip_comm(self, dataset, partition):
        engine = build_engine(dataset, partition, staleness=2)
        fresh, stale = run(engine, 2)    # epoch 0: refresh, 1: stale
        assert stale.dt_seconds == 0.0
        assert fresh.dt_seconds > 0.0

    def test_refresh_cadence(self, dataset, partition):
        engine = build_engine(dataset, partition, staleness=1)
        dt = [stats.dt_seconds for stats in run(engine, 4)]
        # refresh, stale, refresh, stale
        assert dt[0] > 0 and dt[2] > 0
        assert dt[1] == 0 and dt[3] == 0

    def test_staleness_reduces_mean_epoch_time(self, dataset, partition):
        plain = build_engine(dataset, partition, staleness=0)
        stale = build_engine(dataset, partition, staleness=3)
        plain_time = np.mean([stats.epoch_seconds
                              for stats in run(plain, 8)])
        stale_time = np.mean([stats.epoch_seconds
                              for stats in run(stale, 8)])
        assert stale_time < plain_time

    def test_stale_training_still_learns(self, dataset, partition):
        engine = build_engine(dataset, partition, staleness=3)
        run(engine, 15)
        accuracy = engine.evaluate(dataset.val_ids)
        assert accuracy > 5.0 / dataset.num_classes

    def test_stale_close_to_fresh_accuracy(self, dataset, partition):
        fresh = build_engine(dataset, partition, staleness=0, seed=2)
        stale = build_engine(dataset, partition, staleness=3, seed=2)
        run(fresh, 15)
        run(stale, 15)
        fresh_acc = fresh.evaluate(dataset.val_ids)
        stale_acc = stale.evaluate(dataset.val_ids)
        assert stale_acc > fresh_acc - 0.15


class TestNewTensorOps:
    def test_mask_rows_values(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        replacement = np.zeros((4, 3))
        out = x.mask_rows([1, 3], replacement)
        assert np.allclose(out.data[[0, 2]], 0.0)
        assert np.allclose(out.data[1], [3, 4, 5])

    def test_mask_rows_gradient_routing(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        out = x.mask_rows([0, 2], np.zeros((4, 3)))
        out.sum().backward()
        assert np.allclose(x.grad[[0, 2]], 1.0)
        assert np.allclose(x.grad[[1, 3]], 0.0)

    def test_mask_rows_shape_mismatch(self):
        x = Tensor(np.ones((4, 3)))
        with pytest.raises(TrainingError):
            x.mask_rows([0], np.zeros((5, 3)))

    def test_assemble_rows_roundtrip(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(2 * np.ones((2, 3)), requires_grad=True)
        out = Tensor.assemble_rows([a, b], [[0, 2], [1, 3]], 4)
        assert np.allclose(out.data[[0, 2]], 1.0)
        assert np.allclose(out.data[[1, 3]], 2.0)
        (out * 3.0).sum().backward()
        assert np.allclose(a.grad, 3.0)
        assert np.allclose(b.grad, 3.0)

    def test_assemble_rows_requires_partition(self):
        a = Tensor(np.ones((2, 3)))
        with pytest.raises(TrainingError):
            Tensor.assemble_rows([a], [[0, 0]], 2)


class TestWidthsFromModel:
    """Both engines meter the model they are given: there is no width
    knob that can disagree with it."""

    def test_fullbatch_meters_the_model_widths(self, dataset, partition):
        engine = build_engine(dataset, partition)          # 64 wide
        oracle = OracleEngine(dataset, partition, engine.model,
                              engine.optimizer, spec=DEFAULT_SPEC,
                              hidden_dim=64)
        ours, = run(engine, 1)
        assert ours.nn_seconds == oracle._compute_seconds()
        assert (ours.dt_seconds, ours.remote_feature_bytes) \
            == oracle._comm_seconds(refresh=True)
        boundary = sum(len(b) for b in engine.boundary)
        assert ours.remote_feature_bytes \
            == boundary * (dataset.feature_dim + 2 * 64) * 4

    def test_sync_engine_meters_the_model_widths(self, dataset, partition,
                                                 monkeypatch):
        import repro.dist.engine as engine_module
        widths = []
        real = engine_module.estimate_flops

        def spy(subgraph, feature_dim, hidden_dim, num_classes):
            widths.append((hidden_dim, num_classes))
            return real(subgraph, feature_dim, hidden_dim, num_classes)

        monkeypatch.setattr(engine_module, "estimate_flops", spy)
        model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                            hidden_dim=64, rng=np.random.default_rng(1))
        engine = SyncEngine(dataset, partition, NeighborSampler((5, 5)),
                            model, Adam(model.parameters(), lr=0.003),
                            spec=DEFAULT_SPEC, transfer=ZeroCopy())
        engine.run_epoch(512, np.random.default_rng(0), epoch=0)
        assert widths and set(widths) == {(64, dataset.num_classes)}

    @pytest.mark.parametrize("knob", ["hidden_dim", "num_classes"])
    def test_no_width_parameters(self, dataset, partition, knob):
        model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                            rng=np.random.default_rng(1))
        optimizer = Adam(model.parameters(), lr=0.003)
        with pytest.raises(TypeError):
            FullBatchEngine(dataset, partition, model, optimizer,
                            DEFAULT_SPEC, **{knob: 64})
        with pytest.raises(TypeError):
            SyncEngine(dataset, partition, NeighborSampler((5, 5)), model,
                       optimizer, DEFAULT_SPEC, ZeroCopy(), **{knob: 64})


class TestRejectsWhatItCannotRun:
    @pytest.mark.parametrize("name", ["graphsage", "gat"])
    def test_non_gcn_model(self, dataset, partition, name):
        model = build_model(name, dataset.feature_dim, dataset.num_classes,
                            rng=np.random.default_rng(1))
        with pytest.raises(TrainingError, match="model"):
            FullBatchEngine(dataset, partition, model,
                            Adam(model.parameters(), lr=0.01), DEFAULT_SPEC)

    @pytest.mark.parametrize("staleness", [1.5, True, float("nan"),
                                           float("inf"), "2", -1])
    def test_staleness_not_an_integer_at_least_zero(self, dataset,
                                                    partition, staleness):
        with pytest.raises(TrainingError, match="staleness"):
            FullGraph(staleness)
        with pytest.raises(TrainingError, match="staleness"):
            build_engine(dataset, partition, staleness=staleness)

    def test_numpy_integer_staleness_accepted(self, dataset, partition):
        assert FullGraph(np.int64(2)).staleness == 2
        assert build_engine(dataset, partition,
                            staleness=np.int64(2)).staleness == 2


class TestFullGraphPolicy:
    """Full-graph training through the Trainer's ``sampler`` field."""

    def config(self, **overrides):
        return TrainingConfig(**{"sampler": FullGraph(), "num_workers": 3,
                                 "hidden_dim": 32, "epochs": 2,
                                 **overrides})

    def test_named_policy(self, dataset):
        assert make_sampler("full-graph") == FullGraph()
        named = Trainer(dataset, self.config(sampler="full-graph")).run()
        policy = Trainer(dataset, self.config()).run()
        assert named.curve.losses == policy.curve.losses
        assert named.curve.batch_sizes == [len(dataset.train_ids)] * 2

    @pytest.mark.parametrize("name", ["graphsage", "gat"])
    def test_non_gcn_model_rejected(self, dataset, name):
        with pytest.raises(TrainingError, match="model"):
            Trainer(dataset, self.config(model=name)).run()

    @pytest.mark.parametrize("overrides", [
        dict(cache_policy="degree", cache_ratio=0.1),
        dict(cache_policy="lru", cache_ratio=0.05, cache_warm_ratio=0.1),
    ])
    def test_cache_rejected(self, dataset, overrides):
        with pytest.raises(TrainingError, match="cache_policy"):
            Trainer(dataset, self.config(**overrides)).run()

    def test_replication_rejected(self, dataset):
        with pytest.raises(TrainingError, match="replication_budget"):
            Trainer(dataset, self.config(replication_budget=0.05)).run()

    def test_faults_rejected(self, dataset):
        with pytest.raises(TrainingError, match="faults"):
            Trainer(dataset, self.config()).run(faults="crash@1:w1")

