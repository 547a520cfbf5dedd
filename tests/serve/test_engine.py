"""The serving engine: the bit-match invariant, determinism, caching,
backpressure, and report plumbing."""

import contextlib
import json

import numpy as np
import pytest

from repro import load_dataset
from repro.errors import ServingError
from repro.fleet import ShardMap
from repro.nn import build_model, no_grad
from repro.nn import tensor as tensor_module
from repro.partition.base import PartitionResult
from repro.sampling import NeighborSampler
from repro.serve import (BatchPolicy, LayerwiseEmbeddings, LoadGenerator,
                         ServeEngine)
from repro.serve.executor import BatchExecutor
from repro.transfer.hardware import DEFAULT_SPEC, estimate_flops


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.15)


@pytest.fixture(scope="module")
def model(data):
    return build_model("gcn", data.feature_dim, data.num_classes,
                       rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def trace(data):
    return LoadGenerator(data.test_ids, rate=2000.0, num_requests=150,
                         seed=1, skew=0.8).generate()


class TestBitMatchInvariant:
    @pytest.mark.parametrize("name", ["gcn", "graphsage"])
    def test_precomputed_matches_full_fanout_exactly(self, data, name):
        net = build_model(name, data.feature_dim, data.num_classes,
                          rng=np.random.default_rng(3))
        embeddings = LayerwiseEmbeddings(net, data.graph, data.features)
        probe = data.test_ids[:64]
        precomputed = embeddings.logits(probe)
        ondemand, stats = embeddings.ondemand_logits(probe)
        # atol=0: bit-identical, not merely close.
        assert np.array_equal(precomputed, ondemand)
        assert stats.edges > 0
        assert stats.input_vertices > len(np.unique(probe))

    def test_duplicate_queries_allowed(self, data, model):
        embeddings = LayerwiseEmbeddings(model, data.graph,
                                         data.features)
        probe = np.array([5, 5, 9, 5])
        precomputed = embeddings.logits(probe)
        ondemand, _ = embeddings.ondemand_logits(probe)
        assert np.array_equal(precomputed, ondemand)
        assert np.array_equal(precomputed[0], precomputed[1])

    def test_gat_rejected(self, data):
        gat = build_model("gat", data.feature_dim, data.num_classes,
                          rng=np.random.default_rng(0))
        with pytest.raises(ServingError):
            LayerwiseEmbeddings(gat, data.graph, data.features)

    def test_engine_modes_agree(self, data, model, trace):
        """The full and precomputed *engines* return identical
        predictions for identical traces."""
        def predictions(mode):
            engine = ServeEngine(data, model, mode=mode,
                                 policy=BatchPolicy(16, 0.002), seed=2)
            report = engine.run(trace)
            return [(r.request.request_id, r.prediction)
                    for r in report.responses]

        assert predictions("full") == predictions("precomputed")


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["sampled", "precomputed"])
    def test_same_seed_identical_latencies(self, data, model, mode):
        gen = LoadGenerator(data.test_ids, rate=3000.0,
                            num_requests=120, seed=9, skew=0.5)

        def latencies():
            engine = ServeEngine(data, model, mode=mode,
                                 policy=BatchPolicy(8, 0.001),
                                 cache_ratio=0.25, seed=4)
            report = engine.run(gen.generate())
            return [(r.request.request_id, r.latency)
                    for r in report.responses]

        assert latencies() == latencies()

    @pytest.mark.parametrize("mode", ["sampled", "precomputed"])
    def test_a_second_run_starts_cold(self, data, model, mode):
        """Running one engine twice reports the same run: the second
        run does not start from the cache the first one warmed."""
        trace = LoadGenerator(data.test_ids, rate=2000.0,
                              num_requests=200, seed=1,
                              skew=0.8).generate()
        engine = ServeEngine(data, model, mode=mode, cache_ratio=0.1,
                             seed=0)
        assert engine.run(trace).to_dict() == engine.run(trace).to_dict()


class TestServing:
    def test_sampled_mode_report(self, data, model, trace):
        engine = ServeEngine(data, model, mode="sampled",
                             policy=BatchPolicy(16, 0.002),
                             cache_ratio=0.3, seed=0)
        report = engine.run(trace)
        assert report.completed == len(trace)
        assert report.rejected == 0
        assert report.latency_p50 <= report.latency_p95 \
            <= report.latency_p99 <= report.latency_max
        assert report.latency_p50 > 0
        assert report.throughput > 0
        assert 0 < report.mean_batch_size <= 16
        assert 0 < report.batch_occupancy <= 1
        assert 0 <= report.cache_hit_rate <= 1
        assert report.num_batches >= len(trace) / 16

    def test_every_request_answered_once(self, data, model, trace):
        report = ServeEngine(data, model, mode="precomputed",
                             seed=0).run(trace)
        answered = sorted(r.request.request_id
                          for r in report.responses)
        assert answered == [r.request_id for r in trace]
        # Latency covers queueing: completion never precedes arrival.
        assert all(r.latency > 0 for r in report.responses)

    def test_bounded_queue_sheds_load(self, data, model, trace):
        report = ServeEngine(data, model, mode="sampled",
                             policy=BatchPolicy(64, 0.05),
                             max_queue=4, seed=0).run(trace)
        assert report.rejected > 0
        assert report.completed + report.rejected == len(trace)
        assert report.reject_rate > 0

    def test_bigger_cache_hits_more(self, data, model, trace):
        def hit_rate(ratio):
            engine = ServeEngine(data, model, mode="precomputed",
                                 cache_ratio=ratio, seed=0)
            return engine.run(trace).cache_hit_rate

        assert hit_rate(0.8) > hit_rate(0.05)

    def test_precompute_cost_reported_separately(self, data, model,
                                                 trace):
        report = ServeEngine(data, model, mode="precomputed",
                             seed=0).run(trace)
        assert report.precompute_seconds > 0
        assert report.bp_seconds == 0.0
        sampled = ServeEngine(data, model, mode="sampled",
                              seed=0).run(trace)
        assert sampled.precompute_seconds == 0.0
        assert sampled.bp_seconds > 0

    def test_report_json_serializable(self, data, model, trace):
        report = ServeEngine(data, model, mode="sampled",
                             seed=0).run(trace)
        payload = json.loads(json.dumps(report.to_dict()))
        for key in ("latency_p50", "latency_p95", "latency_p99",
                    "throughput", "cache_hit_rate", "breakdown"):
            assert key in payload

    def test_model_mode_restored(self, data, model, trace):
        """There is no train / eval mode to flip: serving leaves the tape
        flag and the model's dropout rng as it found them."""
        rng_before = model.rng_state()
        for outer in (contextlib.nullcontext, no_grad):
            with outer():
                before = tensor_module._taping
                ServeEngine(data, model, mode="sampled", seed=0).run(trace)
                assert tensor_module._taping is before
            assert tensor_module._taping
            assert model.rng_state() == rng_before

    def test_unknown_mode_rejected(self, data, model):
        with pytest.raises(ServingError):
            ServeEngine(data, model, mode="warp")

    def test_empty_trace_rejected(self, data, model):
        with pytest.raises(ServingError):
            ServeEngine(data, model, mode="sampled").run([])


@pytest.mark.parametrize("name", ["gcn", "graphsage", "gat"])
def test_sampled_serving_bills_the_models_hidden_width(data, name):
    """The nn seconds of a sampled batch are the FLOPs of the model's
    own width — GAT included, which has no ``weight`` to read one off."""
    model = build_model(name, data.feature_dim, data.num_classes,
                        hidden_dim=64, rng=np.random.default_rng(7))
    whole = PartitionResult(np.zeros(data.num_vertices, dtype=np.int64),
                            1, "single")
    executor = BatchExecutor(ShardMap(whole, data.graph), 0, data, model,
                             mode="sampled", fanout=(4, 4))
    vertices = data.test_ids[:8]
    with no_grad():
        _predictions, _bp, _dt, nn = executor.execute(
            vertices, np.random.default_rng(3))
    subgraph = NeighborSampler((4, 4)).sample(
        data.graph, vertices, np.random.default_rng(3))
    assert nn == DEFAULT_SPEC.compute_time(estimate_flops(
        subgraph, data.feature_dim, 64, data.num_classes,
        backward_factor=1.0))
