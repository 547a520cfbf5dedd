"""The ``repro lint`` command end-to-end, via ``repro.cli.main``."""

import json
import textwrap

import pytest

from repro.cli import main

#: One seeded violation per RPR rule (the acceptance-bar fixture).
ALL_RULES = """
    import os
    import random
    import time

    import numpy as np


    def f(x=[]):                       # RPR004
        return x


    def norm(xs):
        return sum(v * v for v in xs)  # RPR006 (nn/sampling path)


    def work(d):
        acc = 0.0
        for v in d.values():           # RPR003
            acc += v
        try:
            x = np.random.rand(3)      # RPR001
            t = time.perf_counter()    # RPR002
            home = os.environ["HOME"]  # RPR007
        except:                        # RPR005
            pass
        return acc
"""

EXPECTED = {"RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
            "RPR006", "RPR007"}


def write_fixture(tmp_path, source=ALL_RULES):
    # Under an `nn` directory so the RPR006 hot-path scope applies.
    target = tmp_path / "nn"
    target.mkdir()
    path = target / "fixture.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestLintCommand:
    def test_clean_paths_exit_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seeded_violations_exit_nonzero(self, tmp_path, capsys):
        path = write_fixture(tmp_path)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        for rule in EXPECTED:
            assert rule in out

    def test_json_format_reports_every_rule(self, tmp_path, capsys):
        path = write_fixture(tmp_path)
        assert main(["lint", "--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == EXPECTED
        assert payload["clean"] is False

    def test_out_writes_report_file(self, tmp_path, capsys):
        path = write_fixture(tmp_path)
        out = tmp_path / "report.json"
        assert main(["lint", "--out", str(out), str(path)]) == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["summary"]["new"] == len(EXPECTED)

    def test_update_then_gate_passes(self, tmp_path, capsys):
        path = write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--update-baseline",
                     "--baseline-file", str(baseline), str(path)]) == 0
        assert baseline.exists()
        # Grandfathered: same findings, gate passes.
        assert main(["lint", "--baseline",
                     "--baseline-file", str(baseline), str(path)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out
        # A fresh violation still fails the gate.
        path.write_text(path.read_text(encoding="utf-8")
                        + "\ny = np.random.rand(9)\n", encoding="utf-8")
        assert main(["lint", "--baseline",
                     "--baseline-file", str(baseline), str(path)]) == 1

    def test_missing_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["lint", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_noqa_fixture_clean(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text(
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro: noqa[RPR001]\n",
            encoding="utf-8")
        assert main(["lint", str(path)]) == 0
        assert "1 suppressed" in capsys.readouterr().out


class TestExplicitFileArgs:
    """Satellite: explicit file arguments must fingerprint identically
    to tree runs, whatever their spelling, or baselines stop working."""

    def test_spellings_share_one_baseline(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        # Baseline built from a directory walk...
        assert main(["lint", "--update-baseline",
                     "--baseline-file", str(baseline), "nn"]) == 0
        # ...grandfathers the same file spelled three other ways.
        for spelling in ("nn/fixture.py", "./nn/fixture.py",
                         str(tmp_path / "nn" / "fixture.py")):
            assert main(["lint", "--baseline",
                         "--baseline-file", str(baseline),
                         spelling]) == 0, spelling

    def test_file_and_dir_args_deduplicate(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_fixture(tmp_path)
        main(["lint", "nn", "./nn/fixture.py"])
        assert "1 files scanned" in capsys.readouterr().out


class TestUpdateBaselineMaintenance:
    """Satellite: stale-entry warnings and merge-aware pruning."""

    def test_fixed_findings_warn_then_prune(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--update-baseline",
                     "--baseline-file", str(baseline), "nn"]) == 0
        capsys.readouterr()

        path.write_text("x = 1\n", encoding="utf-8")  # all fixed
        assert main(["lint", "--baseline",
                     "--baseline-file", str(baseline), "nn"]) == 0
        out = capsys.readouterr().out
        assert "stale baseline entr" in out
        assert "--update-baseline" in out

        assert main(["lint", "--update-baseline",
                     "--baseline-file", str(baseline), "nn"]) == 0
        out = capsys.readouterr().out
        assert "stale entries pruned" in out
        assert "(0 stale entries pruned)" not in out
        document = json.loads(baseline.read_text(encoding="utf-8"))
        assert document["findings"] == {}

    def test_partial_update_keeps_unscanned_entries(self, tmp_path,
                                                    capsys,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_fixture(tmp_path)
        other = tmp_path / "other.py"
        other.write_text("import numpy as np\n"
                         "x = np.random.rand(3)\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--update-baseline",
                     "--baseline-file", str(baseline),
                     "nn", "other.py"]) == 0

        # Re-baselining only other.py must not wipe the nn entries...
        assert main(["lint", "--update-baseline",
                     "--baseline-file", str(baseline),
                     "other.py"]) == 0
        document = json.loads(baseline.read_text(encoding="utf-8"))
        assert any(key.startswith("nn/") for key in
                   document["findings"])
        # ...so the full gate still passes afterwards.
        assert main(["lint", "--baseline",
                     "--baseline-file", str(baseline),
                     "nn", "other.py"]) == 0

    def test_deleted_file_entries_pruned(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_fixture(tmp_path)
        other = tmp_path / "other.py"
        other.write_text("import numpy as np\n"
                         "x = np.random.rand(3)\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--update-baseline",
                     "--baseline-file", str(baseline),
                     "nn", "other.py"]) == 0
        other.unlink()
        # other.py is gone: even a run scoped elsewhere prunes it.
        assert main(["lint", "--update-baseline",
                     "--baseline-file", str(baseline), "nn"]) == 0
        document = json.loads(baseline.read_text(encoding="utf-8"))
        assert not any(key.startswith("other.py") for key in
                       document["findings"])
        assert any(key.startswith("nn/") for key in
                   document["findings"])


class TestRepoIsClean:
    def test_head_lints_clean_under_checked_in_baseline(self, tmp_path,
                                                        capsys):
        """The acceptance bar: `repro lint` on the repo itself passes
        (run from the repo root, as `make lint` and CI do) — every file
        parsed once, the RPR rules over all of them and the ARC rules
        over src/repro."""
        from pathlib import Path

        import repro
        from repro.perf import wall_clock

        root = Path(repro.__file__).parents[2]
        paths = [str(root / p) for p in
                 ("src", "benchmarks", "examples", "tools", "tests")]
        out = tmp_path / "report.json"
        start = wall_clock()
        assert main(["lint", "--baseline", "--out", str(out),
                     *paths]) == 0
        elapsed = wall_clock() - start
        summary = json.loads(out.read_text(encoding="utf-8"))["summary"]
        assert summary["parse_errors"] == 0
        # The annotated noqa[ARC002]/noqa[ARC003] sites: the ARC rules ran.
        assert summary["suppressed"] >= 3
        assert elapsed < 10.0, f"lint took {elapsed:.1f}s"
