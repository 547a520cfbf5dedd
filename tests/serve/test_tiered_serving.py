"""Tiered caching on the serving path: engine wiring, report fields,
bench sweep rows, and the CLI flags."""

import json

import numpy as np
import pytest

from repro import Trainer, TrainingConfig, load_dataset
from repro.cli import main
from repro.errors import ServingError
from repro.nn import build_model
from repro.serve import LoadGenerator, ServeEngine
from repro.serve.bench import run_serve_bench


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


class TestTieredServeEngine:
    def test_precomputed_lfu_reports_tier_fields(self, data, model,
                                                 trace):
        engine = ServeEngine(data, model, mode="precomputed",
                             cache_policy="lfu", cache_ratio=0.05,
                             warm_ratio=0.1, seed=2)
        report = engine.run(trace)
        assert engine.fleet.replicas[0].executor.cache.backing == "disk"
        assert report.cache_policy == "lfu"
        assert report.warm_ratio == 0.1
        assert set(report.tier_seconds) == {"hot", "warm", "cold"}
        assert sum(report.tier_seconds.values()) \
            == pytest.approx(report.dt_seconds)
        assert report.cache_hit_rate == report.hot_hit_rate
        out = report.to_dict()
        for key in ("cache_policy", "warm_ratio", "hot_hit_rate",
                    "warm_hit_rate", "tier_seconds"):
            assert key in out
        json.dumps(out)                     # stays serializable

    def test_sampled_static_scores(self, data, model, trace):
        scores = np.zeros(data.graph.num_vertices)
        np.add.at(scores, [r.vertex for r in trace[:40]], 1)
        engine = ServeEngine(data, model, mode="sampled",
                             cache_policy="static", cache_ratio=0.05,
                             warm_ratio=0.1, cache_scores=scores,
                             seed=2)
        report = engine.run(trace)
        assert report.hot_hit_rate + report.warm_hit_rate > 0

    def test_flat_reports_stay_empty(self, data, model, trace):
        engine = ServeEngine(data, model, mode="precomputed",
                             cache_ratio=0.2, seed=2)
        report = engine.run(trace)
        assert engine.fleet.replicas[0].executor.cache.backing == "host"
        assert report.warm_ratio == 0.0
        assert report.tier_seconds == {}
        assert report.hot_hit_rate == 0.0

    def test_tiered_run_deterministic(self, data, model, trace):
        def run():
            return ServeEngine(
                data, model, mode="precomputed", cache_policy="lfu",
                cache_ratio=0.05, warm_ratio=0.1, seed=2).run(trace)

        assert run().to_dict() == run().to_dict()

    def test_presample_without_scores_rejected(self, data, model):
        with pytest.raises(ServingError):
            ServeEngine(data, model, mode="sampled",
                        cache_policy="presample", cache_ratio=0.05,
                        warm_ratio=0.1)

    def test_negative_warm_ratio_rejected(self, data, model):
        with pytest.raises(ServingError):
            ServeEngine(data, model, warm_ratio=-0.1)


class TestTieredBenchRows:
    @pytest.fixture(scope="class")
    def report(self):
        return run_serve_bench(quick=True)

    def test_sweep_contains_tiered_rows(self, report):
        tiered = [r for r in report["results"] if r["warm_ratio"] > 0]
        assert tiered
        for row in tiered:
            assert row["cache_policy"] in ("lfu", "lru", "static",
                                           "degree")
            assert set(row["tier_seconds"]) == {"hot", "warm", "cold"}

    def test_flat_rows_unchanged_shape(self, report):
        flat = [r for r in report["results"] if r["warm_ratio"] == 0]
        assert flat
        for row in flat:
            assert row["tier_seconds"] == {}

    def test_invariant_still_holds(self, report):
        assert report["invariant_exact_match"] is True


class TestTieredTraining:
    def test_loss_curve_bit_identical_and_perf_reported(self):
        data = load_dataset("ogb-arxiv", scale=0.12)
        base = dict(epochs=2, batch_size=128, fanout=(4, 4),
                    num_workers=2, partitioner="hash", seed=0)
        plain = Trainer(data, TrainingConfig(**base)).run()
        tiered = Trainer(data, TrainingConfig(
            cache_policy="lfu", cache_ratio=0.05, cache_warm_ratio=0.1,
            **base)).run()
        # Caches only change simulated timing, never the math.
        assert np.array_equal(plain.curve.losses, tiered.curve.losses)
        perf = tiered.epoch_stats[-1].perf
        assert set(perf["dt_tier_seconds"]) == {"hot", "warm", "cold"}
        tiers = perf["cache_tiers"]
        assert tiers["hot_hits"] + tiers["warm_hits"] \
            + tiers["cold_misses"] > 0
        assert "dt_tier_seconds" not in \
            (plain.epoch_stats[-1].perf or {})


class TestTieredCLI:
    def test_train_cache_budget_flags(self, capsys):
        code = main(["train", "ogb-arxiv", "--scale", "0.12",
                     "--epochs", "2", "--workers", "2",
                     "--partitioner", "hash", "--fanout", "4", "4",
                     "--cache-policy", "lfu", "--cache-budget", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cache tiers" in out

    def test_cache_budget_requires_policy(self, capsys):
        code = main(["train", "ogb-arxiv", "--scale", "0.1",
                     "--epochs", "1", "--cache-budget", "0.2"])
        assert code == 2
        assert "--cache-policy" in capsys.readouterr().err

    def test_random_policy_rejected_for_budget(self, capsys):
        code = main(["train", "ogb-arxiv", "--scale", "0.1",
                     "--epochs", "1", "--cache-policy", "random",
                     "--cache-budget", "0.2"])
        assert code == 2
        assert "single-tier" in capsys.readouterr().err

    def test_superseded_cache_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "ogb-arxiv", "--cache", "degree",
                  "--cache-ratio", "0.2"])
        assert "--cache" in capsys.readouterr().err

    def test_budget_out_of_range_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "ogb-arxiv", "--cache-policy", "lfu",
                  "--cache-budget", "1.5"])

    def test_serve_bench_tiered_flags(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        code = main(["bench", "serve", "--quick", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        tiered = [r for r in report["results"] if r["warm_ratio"] > 0]
        assert tiered and all(r["cache_policy"] == "lfu"
                              for r in tiered)
        assert "tiers" in capsys.readouterr().out
