"""``repro bench fleet``: parser defaults and the quick end-to-end
run; the fleet bench driver's own input validation (the checks the
retired ``fleet-bench`` flags used to make in argparse)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ReproError, ServingError
from repro.fleet import run_fleet_bench

#: A sweep small enough that a check deep in engine construction is
#: reached in well under a second.
TINY = dict(scale=0.1, train_epochs=1, num_requests=16,
            replica_counts=(1, 2), locality_partitioners=("hash",))


class TestParserDefaults:
    def test_defaults(self):
        args = build_parser().parse_args(["bench", "fleet", "--quick"])
        assert args.name == "fleet"
        assert args.out is None and args.schedule is None
        assert not args.sanitize
        assert args.quick

    def test_rejects_unknown_partitioner(self):
        with pytest.raises(ReproError, match="psychic"):
            run_fleet_bench(partitioner="psychic", **TINY)

    def test_rejects_out_of_range_cache_ratio(self):
        with pytest.raises(ServingError, match=r"\[0, 1\]"):
            run_fleet_bench(cache_ratio=1.5, **TINY)


class TestValidationExitCodes:
    def test_rate_multiplier_below_one(self):
        with pytest.raises(ServingError, match="rate_multiplier"):
            run_fleet_bench(rate_multiplier=0.5)

    def test_negative_max_wait(self):
        with pytest.raises(ServingError, match="max_wait"):
            run_fleet_bench(max_wait=-0.001, **TINY)

    def test_cache_budgets_sum_over_one(self):
        with pytest.raises(ServingError, match="<= 1"):
            run_fleet_bench(cache_ratio=0.6, warm_ratio=0.6, **TINY)

    def test_empty_sweeps_rejected_before_any_work(self):
        for sweep in (dict(train_epochs=0), dict(num_requests=0),
                      dict(replica_counts=())):
            with pytest.raises(ServingError):
                run_fleet_bench(dataset="no-such-dataset", **sweep)


class TestQuickEndToEnd:
    def test_quick_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_fleet.json"
        code = main(["bench", "fleet", "--quick", "--out", str(out)])
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
