"""Integration tests: checkpoint/resume bit-identity, fault overhead
accounting, and crash redistribution invariants."""

import numpy as np
import pytest

from repro import Trainer, TrainingConfig
from repro.dist import EpochStats, SyncEngine
from repro.errors import CheckpointError, FaultError, TrainingError
from repro.faults import Checkpointer, FaultInjector, FaultPlan, RetryPolicy
from repro.graph import load_dataset
from repro.nn import Adam, build_model
from repro.partition import HashPartitioner
from repro.sampling import NeighborSampler
from repro.transfer import DEFAULT_SPEC, ZeroCopy

EPOCHS = 4


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.08)


def make_config(**overrides):
    defaults = dict(model="gcn", epochs=EPOCHS, num_workers=3,
                    batch_size=256, fanout=(5, 5), seed=0,
                    early_stop_patience=0)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@pytest.fixture(scope="module")
def healthy(dataset):
    return Trainer(dataset, make_config()).run()


def assert_curves_identical(a, b):
    assert a.curve.losses == b.curve.losses
    assert a.curve.val_accuracies == b.curve.val_accuracies
    assert a.curve.epoch_seconds == b.curve.epoch_seconds
    assert a.test_accuracy == b.test_accuracy


class TestCheckpointResume:
    def test_halt_then_resume_bit_identical(self, dataset, healthy,
                                            tmp_path):
        ckpt = Checkpointer(tmp_path / "run.ckpt", every=1)
        plan = FaultPlan.parse("halt@2")
        with pytest.raises(FaultError, match="injected process halt"):
            Trainer(dataset, make_config()).run(checkpointer=ckpt,
                                                faults=plan)
        # The crash happened at the start of epoch 2, so the last
        # checkpoint covers epochs [0, 2).
        assert ckpt.load_latest()["epoch"] == 2

        resumed = Trainer(dataset, make_config()).run(
            checkpointer=ckpt, resume=True, faults=plan)
        assert resumed.curve.num_epochs == EPOCHS
        assert_curves_identical(resumed, healthy)

    def test_sparse_checkpoint_cadence(self, dataset, healthy, tmp_path):
        ckpt = Checkpointer(tmp_path / "sparse.ckpt", every=2)
        with pytest.raises(FaultError):
            Trainer(dataset, make_config()).run(
                checkpointer=ckpt, faults=FaultPlan.parse("halt@3"))
        # every=2 saves after epochs 1 and 3; the halt at epoch 3 means
        # the resume replays epochs 2 and 3 from the epoch-1 save.
        assert ckpt.load_latest()["epoch"] == 2

        resumed = Trainer(dataset, make_config()).run(
            checkpointer=ckpt, resume=True,
            faults=FaultPlan.parse("halt@3"))
        assert_curves_identical(resumed, healthy)

    def test_resume_without_file_starts_fresh(self, dataset, healthy,
                                              tmp_path):
        ckpt = Checkpointer(tmp_path / "missing.ckpt")
        result = Trainer(dataset, make_config()).run(
            checkpointer=ckpt, resume=True)
        assert_curves_identical(result, healthy)
        assert ckpt.exists()  # the fresh run still checkpoints

    def test_fingerprint_mismatch_refuses_resume(self, dataset,
                                                 tmp_path):
        ckpt = Checkpointer(tmp_path / "run.ckpt")
        Trainer(dataset, make_config(epochs=1)).run(checkpointer=ckpt)
        other = make_config(epochs=1, num_workers=2)
        with pytest.raises(CheckpointError, match="different "
                                                  "configuration"):
            Trainer(dataset, other).run(checkpointer=ckpt, resume=True)

    def test_bad_faults_argument_rejected(self, dataset):
        with pytest.raises(TrainingError):
            Trainer(dataset, make_config()).run(faults=3.14)


class TestFaultOverheadAccounting:
    def test_flaky_slows_clock_not_math(self, dataset, healthy):
        plan = FaultPlan.parse(f"flaky@0+{EPOCHS}:w0:p0.3")
        flaky = Trainer(dataset, make_config()).run(faults=plan)
        # Retries cost only simulated seconds: the arithmetic — and
        # therefore the loss curve — is untouched.
        assert flaky.curve.losses == healthy.curve.losses
        assert flaky.curve.val_accuracies == healthy.curve.val_accuracies
        assert flaky.total_train_seconds > healthy.total_train_seconds
        assert sum(s.retries for s in flaky.epoch_stats) > 0
        assert sum(s.fault_seconds for s in flaky.epoch_stats) > 0
        assert all(s.alive_workers == 3 for s in flaky.epoch_stats)

    def test_same_plan_seed_replays_identically(self, dataset):
        runs = [Trainer(dataset, make_config()).run(
            faults=FaultPlan.parse(f"flaky@0+{EPOCHS}:w0:p0.3", seed=4))
            for _ in range(2)]
        assert_curves_identical(runs[0], runs[1])
        assert [s.retries for s in runs[0].epoch_stats] == \
            [s.retries for s in runs[1].epoch_stats]
        assert [s.fault_seconds for s in runs[0].epoch_stats] == \
            [s.fault_seconds for s in runs[1].epoch_stats]

    def test_straggler_stretches_epoch(self, dataset, healthy):
        plan = FaultPlan.parse(f"straggler@0+{EPOCHS}:w0:x4")
        slow = Trainer(dataset, make_config()).run(faults=plan)
        assert slow.curve.losses == healthy.curve.losses
        assert slow.total_train_seconds > healthy.total_train_seconds

    def test_healthy_stats_have_zero_fault_counters(self, healthy):
        for stats in healthy.epoch_stats:
            assert stats.retries == 0
            assert stats.giveups == 0
            assert stats.fault_seconds == 0.0
            assert stats.dropped_vertices == 0
            assert stats.alive_workers == 3


def build_engine(dataset, spec, crash_policy="redistribute",
                 num_parts=3):
    partition = HashPartitioner().partition(
        dataset.graph, num_parts, split=dataset.split,
        rng=np.random.default_rng(0))
    model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                        rng=np.random.default_rng(1))
    engine = SyncEngine(dataset, partition, NeighborSampler((5, 5)),
                        model, Adam(model.parameters(), lr=0.003),
                        spec=DEFAULT_SPEC, transfer=ZeroCopy(),
                        injector=FaultInjector(FaultPlan.parse(spec)),
                        crash_policy=crash_policy)
    return engine


class TestCrashRedistribution:
    def run_epochs(self, engine, epochs):
        rng = np.random.default_rng(7)
        return [engine.run_epoch(512, rng, epoch=e)
                for e in range(epochs)]

    def test_redistribute_keeps_every_vertex(self, dataset):
        engine = build_engine(dataset, "crash@1:w1")
        before = np.sort(np.concatenate(
            [w.train_ids for w in engine.workers]))
        stats = self.run_epochs(engine, 2)

        assert not engine.workers[1].alive
        assert len(engine.workers[1].train_ids) == 0
        survivors = [w for w in engine.workers if w.alive]
        assert len(survivors) == 2
        # Every training vertex is still owned by exactly one survivor.
        after = np.sort(np.concatenate(
            [w.train_ids for w in survivors]))
        assert np.array_equal(after, before)
        assert stats[0].alive_workers == 3
        assert stats[1].alive_workers == 2
        assert stats[1].dropped_vertices == 0

    def test_drop_policy_loses_only_the_crashed_share(self, dataset):
        engine = build_engine(dataset, "crash@1:w1", crash_policy="drop")
        total = sum(len(w.train_ids) for w in engine.workers)
        crashed_share = len(engine.workers[1].train_ids)
        stats = self.run_epochs(engine, 2)

        survivors = [w for w in engine.workers if w.alive]
        remaining = sum(len(w.train_ids) for w in survivors)
        assert stats[1].dropped_vertices == crashed_share
        assert remaining + crashed_share == total

    def test_allreduce_ring_shrinks(self, dataset):
        engine = build_engine(dataset, "crash@1:w2")
        healthy_cost = engine._allreduce_seconds()
        self.run_epochs(engine, 2)
        assert engine._allreduce_seconds() < healthy_cost

    def test_crashing_every_worker_raises(self, dataset):
        engine = build_engine(dataset,
                              "crash@1:w0,crash@1:w1,crash@1:w2")
        rng = np.random.default_rng(7)
        engine.run_epoch(512, rng, epoch=0)
        with pytest.raises(FaultError, match="every worker"):
            engine.run_epoch(512, rng, epoch=1)

    def test_unknown_worker_id_rejected(self, dataset):
        engine = build_engine(dataset, "crash@0:w9")
        with pytest.raises(FaultError, match="only 0..2|has 3 workers"):
            engine.run_epoch(512, np.random.default_rng(7), epoch=0)

    def test_invalid_crash_policy_rejected(self, dataset):
        with pytest.raises(TrainingError):
            build_engine(dataset, "crash@1:w1", crash_policy="shrug")


class TestEpochStatsDefaults:
    def test_perf_none_normalized_to_empty_dict(self):
        stats = EpochStats(loss=0.5, epoch_seconds=1.0, bp_seconds=0.3,
                           dt_seconds=0.3, nn_seconds=0.4,
                           allreduce_seconds=0.0, num_steps=1,
                           involved_vertices=10, involved_edges=20,
                           remote_feature_bytes=0, batch_size=8)
        assert stats.perf == {}
        assert stats.perf.get("anything") is None

    def test_explicit_perf_preserved(self):
        stats = EpochStats(loss=0.5, epoch_seconds=1.0, bp_seconds=0.3,
                           dt_seconds=0.3, nn_seconds=0.4,
                           allreduce_seconds=0.0, num_steps=1,
                           involved_vertices=10, involved_edges=20,
                           remote_feature_bytes=0, batch_size=8,
                           perf={"k": 1})
        assert stats.perf == {"k": 1}


class TestRetryPolicyPlumbing:
    def test_custom_retry_policy_changes_overhead(self, dataset):
        plan = FaultPlan.parse(f"flaky@0+{EPOCHS}:w0:p0.3")
        cheap = Trainer(dataset, make_config()).run(
            faults=plan, retry=RetryPolicy(timeout=1e-3, jitter=0.0))
        dear = Trainer(dataset, make_config()).run(
            faults=plan, retry=RetryPolicy(timeout=1e-1, jitter=0.0))
        assert cheap.curve.losses == dear.curve.losses
        assert dear.total_train_seconds > cheap.total_train_seconds
