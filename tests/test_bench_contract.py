"""The bench table's contract, for every registered name: the one path
rule, a ``--quick`` run that exits 0, and the one writer's bytes — plus
the exit codes of ``repro bench`` when a run does not go well."""

import json
from pathlib import Path

import pytest

from repro.bench import BENCHES, result_path
from repro.cli import main

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(BENCHES))
class TestEveryRegisteredBench:
    def test_path_rule(self, name):
        """``BENCH_<name>.json`` at the repo root (tracked); a
        ``--quick`` smoke lands on the git-ignored sibling; ``--out``
        wins over both."""
        stem = "BENCH_" + name.replace("-", "_")
        assert result_path(name) == REPO / f"{stem}.json"
        assert result_path(name).exists()
        assert result_path(name, quick=True) \
            == REPO / f"{stem}.quick.json"
        assert str(result_path(name, quick=True, out="x.json")) \
            == "x.json"

    def test_quick_run_writes_canonical_json(self, name, tmp_path,
                                             capsys):
        out = tmp_path / "report.json"
        assert main(["bench", name, "--quick", "--out", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
        stdout = capsys.readouterr().out
        assert "VIOLATED" not in stdout
        assert f"wrote {out}" in stdout


class TestExitCodes:
    @pytest.mark.parametrize("command", [
        "serve-bench", "fleet-bench", "chaos", "fleet-chaos",
        "kernel-bench"])
    def test_retired_subcommands_are_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--quick"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unregistered_name_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "cache"])
        assert exc.value.code == 2

    def test_schedule_is_fleet_chaos_only(self, capsys):
        code = main(["bench", "fleet", "--quick",
                     "--schedule", "crash@0.002+0.003:w0"])
        assert code == 2
        assert "--schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        "garbage",                        # not in the grammar
        "flaky@0.001+0.002:w0:p0.3",      # a training-only fault kind
    ])
    def test_bad_schedule_is_an_error_line_not_a_traceback(
            self, spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["bench", "fleet-chaos", "--quick",
                     "--schedule", spec, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_driver_error_is_an_error_line(self, monkeypatch, tmp_path,
                                           capsys):
        """Any ``ReproError`` out of a driver — here the fault bench's
        halt epoch beyond its run — is printed, exit 1."""
        import repro.faults.bench as faults_bench
        driver = faults_bench.run_fault_bench
        monkeypatch.setattr(
            faults_bench, "run_fault_bench",
            lambda **kwargs: driver(halt_epoch=50, **kwargs))
        code = main(["bench", "faults",
                     "--out", str(tmp_path / "report.json")])
        assert code == 1
        assert "error: halt epoch" in capsys.readouterr().err

    def test_violated_check_exits_one(self, monkeypatch, tmp_path,
                                      capsys):
        import repro.fleet.bench as fleet_bench
        monkeypatch.setattr(fleet_bench, "checks",
                            lambda report: {"gate bit_match": False})
        out = tmp_path / "report.json"
        code = main(["bench", "fleet", "--quick", "--out", str(out)])
        assert code == 1
        assert "gate bit_match: VIOLATED" in capsys.readouterr().out
        assert out.exists()     # the measured rows are still recorded
