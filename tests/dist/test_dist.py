"""Unit tests for the distributed runtime (worker, engine)."""

import numpy as np
import pytest

from repro.batching import RandomBatchSelector
from repro.dist import EpochStats, SyncEngine
from repro.errors import TrainingError
from repro.graph import load_dataset
from repro.nn import Adam, build_model
from repro.partition import HashPartitioner, StreamVPartitioner
from repro.sampling import NeighborSampler
from repro.transfer import DEFAULT_SPEC, ZeroCopy


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.25)


def build_engine(dataset, partitioner=None, num_parts=2, **kwargs):
    partitioner = partitioner or HashPartitioner()
    partition = partitioner.partition(dataset.graph, num_parts,
                                      split=dataset.split,
                                      rng=np.random.default_rng(0))
    model = build_model("gcn", dataset.feature_dim, dataset.num_classes,
                        rng=np.random.default_rng(1))
    optimizer = Adam(model.parameters(), lr=0.003)
    return SyncEngine(dataset, partition, NeighborSampler((5, 5)), model,
                      optimizer, spec=DEFAULT_SPEC, transfer=ZeroCopy(),
                      **kwargs)


def remote_sample_requests(engine):
    """Remote sampling requests summed over every batch the engine's
    workers have prepared."""
    return sum(work.remote_sample_requests for worker in engine.workers
               for work in worker.work_log)


class _RecordingSelector(RandomBatchSelector):
    """Random selection that remembers every batch it formed."""

    def __init__(self):
        self.formed = []

    def batches(self, train_ids, batch_size, rng):
        for batch in super().batches(train_ids, batch_size, rng):
            self.formed.append(batch)
            yield batch


class TestBatchSelection:
    def test_default_selector_is_random(self, dataset):
        assert isinstance(build_engine(dataset).selector,
                          RandomBatchSelector)

    def test_selector_forms_every_batch(self, dataset):
        selector = _RecordingSelector()
        engine = build_engine(dataset, selector=selector)
        stats = engine.run_epoch(64, np.random.default_rng(0), epoch=0)
        assert sorted(np.concatenate(selector.formed).tolist()) \
            == sorted(dataset.train_ids.tolist())
        assert sum(w.batches_done for w in engine.workers) \
            == len(selector.formed)
        assert stats.num_steps == max(w.batches_done
                                      for w in engine.workers)

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(TrainingError, match="batch_size"):
            build_engine(dataset).run_epoch(
                0, np.random.default_rng(0), epoch=0)


class TestSyncEngine:
    def test_epoch_returns_stats(self, dataset):
        engine = build_engine(dataset)
        stats = engine.run_epoch(64, np.random.default_rng(0), epoch=0)
        assert isinstance(stats, EpochStats)
        assert stats.loss > 0
        assert stats.epoch_seconds > 0
        assert stats.involved_edges > 0
        assert stats.num_steps >= 1

    def test_loss_decreases_over_epochs(self, dataset):
        engine = build_engine(dataset)
        rng = np.random.default_rng(0)
        first = engine.run_epoch(64, rng, epoch=0).loss
        for epoch in range(1, 6):
            last = engine.run_epoch(64, rng, epoch=epoch).loss
        assert last < first

    def test_breakdown_sums_to_one(self, dataset):
        engine = build_engine(dataset)
        stats = engine.run_epoch(64, np.random.default_rng(0), epoch=0)
        assert sum(stats.breakdown().values()) == pytest.approx(1.0)

    def test_single_worker_no_allreduce(self, dataset):
        engine = build_engine(dataset, num_parts=1)
        stats = engine.run_epoch(64, np.random.default_rng(0), epoch=0)
        assert stats.allreduce_seconds == 0.0
        assert stats.remote_feature_bytes == 0
        assert remote_sample_requests(engine) == 0

    def test_multi_worker_comm_recorded(self, dataset):
        engine = build_engine(dataset, num_parts=2)
        stats = engine.run_epoch(64, np.random.default_rng(0), epoch=0)
        assert stats.remote_feature_bytes > 0
        assert remote_sample_requests(engine) > 0

    def test_stream_v_reduces_comm(self, dataset):
        hash_engine = build_engine(dataset, num_parts=2)
        hash_stats = hash_engine.run_epoch(64, np.random.default_rng(0),
                                           epoch=0)
        stream_engine = build_engine(
            dataset, partitioner=StreamVPartitioner(hop_cap=None),
            num_parts=2)
        stream_stats = stream_engine.run_epoch(
            64, np.random.default_rng(0), epoch=0)
        assert (stream_stats.remote_feature_bytes
                < 0.05 * hash_stats.remote_feature_bytes)
        assert (remote_sample_requests(stream_engine)
                < 0.05 * remote_sample_requests(hash_engine))

    def test_cache_slot_mismatch(self, dataset):
        partition = HashPartitioner().partition(
            dataset.graph, 2, rng=np.random.default_rng(0))
        model = build_model("gcn", dataset.feature_dim,
                            dataset.num_classes,
                            rng=np.random.default_rng(1))
        with pytest.raises(TrainingError):
            SyncEngine(dataset, partition, NeighborSampler((5, 5)), model,
                       Adam(model.parameters(), lr=0.01),
                       spec=DEFAULT_SPEC, transfer=ZeroCopy(),
                       caches=[None])  # needs 2 slots

    def test_pipeline_mode_speeds_epoch(self, dataset):
        sequential = build_engine(dataset, pipeline_mode="none")
        pipelined = build_engine(dataset, pipeline_mode="bp+dt")
        seq_stats = sequential.run_epoch(64, np.random.default_rng(0),
                                         epoch=0)
        pipe_stats = pipelined.run_epoch(64, np.random.default_rng(0),
                                         epoch=0)
        assert pipe_stats.epoch_seconds <= seq_stats.epoch_seconds
