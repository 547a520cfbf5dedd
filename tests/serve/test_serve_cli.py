"""CLI surface: ``--version`` and the ``serve-bench`` subcommand."""

import json

import pytest

from repro import __version__
from repro.cli import build_parser, main


class TestVersionFlag:
    def test_version_exits_zero_and_prints(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_version_matches_package(self):
        assert __version__ == "1.0.0"


class TestServeBenchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench", "--quick"])
        assert args.dataset == "ogb-arxiv"
        assert args.modes == ["sampled", "precomputed"]
        assert args.quick

    def test_quick_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        code = main(["serve-bench", "--quick", "--out", str(out)])
        assert code == 0

        report = json.loads(out.read_text())
        assert report["invariant_exact_match"] is True
        # >= 2 policies x >= 2 cache ratios per mode.
        results = report["results"]
        assert len({r["policy"] for r in results}) >= 2
        assert len({r["cache_ratio"] for r in results}) >= 2
        for row in results:
            assert row["latency_p50"] <= row["latency_p95"] \
                <= row["latency_p99"]
            assert row["throughput"] > 0

        stdout = capsys.readouterr().out
        assert "invariant" in stdout
        assert "ok" in stdout


class TestBenchOutputPath:
    """A ``--quick`` smoke must never land on a tracked BENCH file."""

    @pytest.mark.parametrize("command, tracked", [
        ("serve-bench", "BENCH_serve.json"),
        ("fleet-bench", "BENCH_fleet.json"),
        ("chaos", "BENCH_faults.json"),
        ("fleet-chaos", "BENCH_fleet_chaos.json"),
        ("kernel-bench", "BENCH_hotpath.json"),
    ])
    def test_quick_defaults_to_untracked_sibling(self, command,
                                                 tracked):
        from repro.cli import _bench_out
        parse = build_parser().parse_args
        assert _bench_out(parse([command]), tracked).name == tracked
        assert _bench_out(parse([command, "--quick"]), tracked).name \
            == tracked.replace(".json", ".quick.json")
        assert str(_bench_out(
            parse([command, "--quick", "--out", "x.json"]), tracked)) \
            == "x.json"

