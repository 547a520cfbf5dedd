"""Unit tests for chrome-trace export."""

import json

import numpy as np
import pytest

from repro.errors import TransferError
from repro.transfer import (epoch_trace_events, simulate_pipeline,
                            worker_trace, write_epoch_trace)

TIMES = [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (0.5, 1.0, 2.0)]


class TestEpochTrace:
    def test_event_count(self):
        events = epoch_trace_events(TIMES, mode="bp+dt")
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 3 * 3  # batches x resource groups

    def test_consistent_with_makespan(self):
        events = epoch_trace_events(TIMES, mode="bp+dt", time_scale=1.0)
        spans = [e for e in events if e["ph"] == "X"]
        last_end = max(e["ts"] + e["dur"] for e in spans)
        makespan = simulate_pipeline(TIMES, "bp+dt").makespan
        assert last_end == pytest.approx(makespan)

    def test_resource_exclusivity(self):
        """No two spans on the same resource (tid) overlap."""
        events = epoch_trace_events(TIMES, mode="bp+dt", time_scale=1.0)
        spans = [e for e in events if e["ph"] == "X"]
        for tid in {e["tid"] for e in spans}:
            lane = sorted((e["ts"], e["ts"] + e["dur"]) for e in spans
                          if e["tid"] == tid)
            for (s1, e1), (s2, _e2) in zip(lane, lane[1:]):
                assert s2 >= e1 - 1e-9

    def test_sequential_mode_single_lane(self):
        events = epoch_trace_events(TIMES, mode="none")
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in spans} == {0}

    def test_metadata_labels(self):
        events = epoch_trace_events(TIMES, mode="bp+dt", worker=2)
        names = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "worker 2" for e in names)
        thread_names = {e["args"]["name"] for e in names
                        if e["name"] == "thread_name"}
        assert thread_names == {"CPU", "PCIe", "GPU"}

    def test_invalid_shape(self):
        with pytest.raises(TransferError):
            epoch_trace_events([(1.0, 2.0)])


class TestMultiWorkerTrace:
    def test_workers_get_distinct_pids(self):
        events = worker_trace([TIMES, TIMES], mode="bp")
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {0, 1}

    def test_empty_worker_skipped(self):
        events = worker_trace([TIMES, []])
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {0}

    def test_write_trace_file(self, tmp_path):
        path = write_epoch_trace(tmp_path / "trace" / "epoch.json",
                                 [TIMES], mode="bp+dt")
        with open(path) as handle:
            payload = json.load(handle)
        assert "traceEvents" in payload
        assert len(payload["traceEvents"]) > 0


class TestTraceFromRealRun:
    def test_trace_from_engine_workers(self):
        """End-to-end: the engine's recorded stage times export to a
        well-formed trace."""
        from repro import Trainer, TrainingConfig, load_dataset
        dataset = load_dataset("ogb-arxiv", scale=0.25)
        config = TrainingConfig(epochs=1, batch_size=64, fanout=(4, 4),
                                num_workers=2, partitioner="hash")
        trainer = Trainer(dataset, config)
        engine, _p, _s, _m, _opt = trainer._build_engine()
        engine.run_epoch(64, np.random.default_rng(0), epoch=0)
        stage_lists = [w.epoch_stage_times(w.batches_done)
                       for w in engine.workers]
        events = worker_trace(stage_lists, mode="bp+dt")
        assert len([e for e in events if e["ph"] == "X"]) > 0
