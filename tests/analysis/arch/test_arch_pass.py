"""The ARC rules inside the one analyzer: live-fire injections, noqa,
and the ``repro lint`` wiring.

The live-fire tests are the acceptance criterion from the analyzer's
design: inject a synthetic bypass (a scipy aggregation in a fake ``nn``
module, an upward import, a wall-clock read in an event-loop-reachable
function), assert the matching ARC rule fires, and assert the pass is
clean once the injection is gone.
"""

import ast
import json

import pytest

import repro.analysis.layers as layers
import repro.analysis.lint as lint
from repro.analysis import lint_paths
from repro.analysis.lint import default_root
from repro.cli import main
from repro.perf import wall_clock

from tests.analysis.arch.miniproj import (INJECT_SCIPY_NN,
                                          INJECT_UPWARD_IMPORT,
                                          INJECT_WALL_CLOCK,
                                          clean_contract, lint_project,
                                          write_project)

INJECTIONS = [("ARC001", INJECT_UPWARD_IMPORT),
              ("ARC002", INJECT_SCIPY_NN),
              ("ARC004", INJECT_WALL_CLOCK)]


class TestLiveFire:
    def test_clean_project_passes_every_rule(self, tmp_path):
        root = write_project(tmp_path)
        result = lint_project(root)
        assert result.clean, [f.message for f in result.findings]
        assert result.files_scanned == len(
            [p for p in root.rglob("*.py")])

    @pytest.mark.parametrize("code,overlay", INJECTIONS)
    def test_injected_bypass_fires_exactly_that_rule(self, tmp_path,
                                                     code, overlay):
        result = lint_project(write_project(tmp_path, overlay=overlay))
        assert not result.clean
        assert {f.rule for f in result.findings} == {code}

    @pytest.mark.parametrize("code,overlay", INJECTIONS)
    def test_removing_the_injection_cleans_the_pass(self, tmp_path,
                                                    code, overlay):
        root = write_project(tmp_path, overlay=overlay)
        assert not lint_project(root).clean
        # Restore the clean sources in place: same tree, bypass gone.
        clean_root = write_project(tmp_path / "clean")
        for rel in overlay:
            (root / rel).write_text(
                (clean_root / rel).read_text(encoding="utf-8"),
                encoding="utf-8")
        assert lint_project(root).clean

    def test_partial_run_skips_the_arc_rules(self, tmp_path):
        # The package root is not among the scanned paths, so the
        # whole-program rules do not run.
        root = write_project(tmp_path, overlay=INJECT_SCIPY_NN)
        assert not lint_project(root).clean
        result = lint_paths([root / "nn" / "model.py"], root=root,
                            contract=clean_contract())
        assert result.clean, [f.rule for f in result.findings]


class TestSuppression:
    def test_noqa_suppresses_and_counts(self, tmp_path):
        overlay = {"graph/csr.py": """
            from ..fleet.engine import Engine  # repro: noqa[ARC001]


            def build_matrix(n):
                return [[0] * n for _ in range(n)]
        """}
        result = lint_project(write_project(tmp_path, overlay=overlay))
        assert result.clean
        assert result.suppressed == 1

    def test_wrong_code_noqa_does_not_suppress(self, tmp_path):
        overlay = {"graph/csr.py": """
            from ..fleet.engine import Engine  # repro: noqa[ARC002]


            def build_matrix(n):
                return [[0] * n for _ in range(n)]
        """}
        result = lint_project(write_project(tmp_path, overlay=overlay))
        assert not result.clean
        assert result.suppressed == 0

    def test_syntax_error_yields_one_rpr000(self, tmp_path):
        # Every rule runs: the broken module under the package root is
        # reported once, by the parse, not once per pass.
        root = write_project(tmp_path,
                             overlay={"broken.py": "def broken(:\n"})
        result = lint_paths([root], root=root, contract=clean_contract())
        assert result.parse_errors == 1
        assert [f.rule for f in result.findings] == ["RPR000"]


class TestOneParse:
    def test_each_scanned_file_parsed_once(self, tmp_path, monkeypatch):
        # Both rule families fire on the injected wall-clock read (ARC004
        # through the project graph, RPR002 in the file itself) from one
        # ast.parse per file.
        root = write_project(tmp_path, overlay=INJECT_WALL_CLOCK)
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        result = lint_paths([root], root=root, contract=clean_contract())
        assert {f.rule for f in result.findings} == {"ARC004", "RPR002"}
        assert len(parsed) == len(set(parsed)) == result.files_scanned


class TestRealTree:
    """The ARC rules over the repo's own package root, through the
    library call and through ``repro lint``."""

    def test_head_is_clean_and_fast(self):
        start = wall_clock()
        result = lint_paths([default_root()])
        elapsed = wall_clock() - start
        assert result.clean, [f"{f.path}:{f.line} {f.rule} {f.message}"
                              for f in result.findings]
        assert result.parse_errors == 0
        assert result.files_scanned > 100
        # The annotated noqa[ARC002]/noqa[ARC003] sites: the ARC rules ran.
        assert result.suppressed >= 3
        assert elapsed < 10.0, f"arch pass took {elapsed:.1f}s"

    def test_cli_gate_passes_at_head(self, capsys):
        assert main(["lint", str(default_root())]) == 0
        assert "clean" in capsys.readouterr().out


@pytest.fixture()
def project_cli(tmp_path, monkeypatch):
    """``repro lint`` with the mini-project and its contract standing in
    for ``src/repro`` and the checked-in contract."""
    def install(overlay=None):
        root = write_project(tmp_path, overlay=overlay)
        monkeypatch.setattr(lint, "default_root", lambda: root)
        monkeypatch.setattr(layers, "CONTRACT", clean_contract())
        return root
    return install


class TestArchLintCli:
    def test_injected_project_exits_nonzero(self, project_cli, capsys):
        root = project_cli(INJECT_SCIPY_NN)
        assert main(["lint", str(root)]) == 1
        assert "ARC002" in capsys.readouterr().out

    def test_json_report_carries_arc_rule_table(self, project_cli,
                                                tmp_path, capsys):
        root = project_cli()
        out = tmp_path / "report.json"
        assert main(["lint", str(root), "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["clean"] is True
        assert [row["rule"] for row in payload["rules"]] == [
            "ARC001", "ARC002", "ARC003", "ARC004", "ARC005", "ARC006",
            "RPR000", "RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
            "RPR006", "RPR007"]

    def test_missing_root_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_arch_lint_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["arch-lint"])
        assert exc.value.code == 2
