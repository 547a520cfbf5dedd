"""CLI surface for ``repro fleet-bench``: defaults, validation exit
codes, and the quick end-to-end run."""

import json

import pytest

from repro.cli import build_parser, main


class TestParserDefaults:
    def test_defaults(self):
        args = build_parser().parse_args(["fleet-bench", "--quick"])
        assert args.dataset == "ogb-arxiv"
        assert args.rate_multiplier == 100.0
        assert args.replicas == [1, 2, 4, 8]
        assert args.partitioner == "metis-v"
        assert set(args.locality_partitioners) == {
            "hash", "metis-v", "metis-ve", "metis-vet"}
        assert args.max_wait_ms == 0.5
        assert args.cache_ratio == 0.1
        assert args.warm_ratio == 0.1
        assert args.out is None
        assert args.quick

    def test_rejects_unknown_partitioner(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet-bench", "--partitioner", "psychic"])

    def test_rejects_out_of_range_cache_ratio(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet-bench", "--cache-ratio", "1.5"])


class TestValidationExitCodes:
    def test_rate_multiplier_below_one(self, capsys):
        code = main(["fleet-bench", "--rate-multiplier", "0.5"])
        assert code == 2
        assert "--rate-multiplier" in capsys.readouterr().err

    def test_negative_max_wait(self, capsys):
        code = main(["fleet-bench", "--max-wait-ms", "-1"])
        assert code == 2
        assert "--max-wait-ms" in capsys.readouterr().err

    def test_cache_budgets_sum_over_one(self, capsys):
        code = main(["fleet-bench", "--cache-ratio", "0.6",
                     "--warm-ratio", "0.6"])
        assert code == 2
        assert "--cache-ratio" in capsys.readouterr().err


class TestQuickEndToEnd:
    def test_quick_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_fleet.json"
        code = main(["fleet-bench", "--quick", "--out", str(out)])
        assert code == 0

        report = json.loads(out.read_text())
        assert report["invariant_exact_match"] is True
        counts = [r["num_replicas"] for r in report["scaling"]]
        assert counts == sorted(set(counts))
        assert counts[0] == 1 and len(counts) >= 2
        for row in report["scaling"]:
            assert row["latency_p50"] <= row["latency_p95"] \
                <= row["latency_p99"]
            assert row["throughput"] > 0
            assert "hot_hit_rate" in row
        # Locality sweep covers both modes per partitioner.
        modes = {(r["partitioner"], r["mode"])
                 for r in report["locality"]}
        assert all((p, "sampled") in modes and (p, "precomputed")
                   in modes for p, _ in modes)
        assert report["failover"]["completed"] > 0

        stdout = capsys.readouterr().out
        assert "Fleet scaling" in stdout
        assert "Routing locality" in stdout
        assert "bit-exact): ok" in stdout
