"""CLI surface: ``--version`` and ``repro bench serve``; the serving
bench driver's own input validation."""

import json

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.errors import ServingError
from repro.serve import run_serve_bench


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
        args = build_parser().parse_args(["bench", "serve", "--quick"])
        assert args.name == "serve"
        assert args.quick
        assert not args.sanitize
        assert args.out is None and args.schedule is None

    def test_quick_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        code = main(["bench", "serve", "--quick", "--out", str(out)])
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


class TestServeBenchValidation:
    """What ``serve-bench``'s argparse types used to reject is rejected
    by the driver, with a typed error."""

    @pytest.mark.parametrize("sweep", [
        dict(train_epochs=0), dict(num_requests=0),
        dict(policies=()), dict(cache_ratios=())])
    def test_empty_sweeps_rejected_before_any_work(self, sweep):
        with pytest.raises(ServingError):
            run_serve_bench(dataset="no-such-dataset", **sweep)

    def test_cache_ratio_out_of_range(self):
        with pytest.raises(ServingError, match=r"\[0, 1\]"):
            run_serve_bench(scale=0.1, train_epochs=1, num_requests=8,
                            modes=("precomputed",),
                            policies=((4, 0.0005),),
                            cache_ratios=(0.5, 2.0))
