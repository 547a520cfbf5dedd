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
        assert payload["summary"]["total"] == len(EXPECTED)

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
    """Explicit file arguments report the same finding paths as tree
    runs, whatever their spelling."""

    def test_spellings_report_one_path(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_fixture(tmp_path)
        reports = []
        for spelling in ("nn", "nn/fixture.py", "./nn/fixture.py",
                         str(tmp_path / "nn" / "fixture.py")):
            assert main(["lint", "--format", "json", spelling]) == 1
            findings = json.loads(capsys.readouterr().out)["findings"]
            reports.append([(f["file"], f["line"], f["rule"])
                            for f in findings])
        assert {path for path, _, _ in reports[0]} == {"nn/fixture.py"}
        assert all(report == reports[0] for report in reports), reports

    def test_file_and_dir_args_deduplicate(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_fixture(tmp_path)
        main(["lint", "nn", "./nn/fixture.py"])
        assert "1 files scanned" in capsys.readouterr().out


class TestRepoIsClean:
    def test_head_lints_clean(self, tmp_path, capsys):
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
        assert main(["lint", "--out", str(out), *paths]) == 0
        elapsed = wall_clock() - start
        summary = json.loads(out.read_text(encoding="utf-8"))["summary"]
        assert summary["parse_errors"] == 0
        # The annotated noqa[ARC002]/noqa[ARC003] sites: the ARC rules ran.
        assert summary["suppressed"] >= 3
        assert elapsed < 10.0, f"lint took {elapsed:.1f}s"
