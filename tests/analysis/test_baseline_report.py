"""Baseline round-trips, fingerprint semantics, and reporter output."""

import json
import textwrap

from repro.analysis import (REPORT_VERSION, lint_paths, render_json,
                            render_text, rule_table, write_json)
from repro.analysis.baseline import (fingerprint, filter_new,
                                     load_baseline, save_baseline,
                                     to_baseline)

DIRTY = textwrap.dedent("""
    import numpy as np
    x = np.random.rand(3)
""")


def write_tree(tmp_path, name="dirty.py", source=DIRTY):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


class TestBaseline:
    def test_round_trip_grandfathers_findings(self, tmp_path):
        target = write_tree(tmp_path)
        result = lint_paths([target])
        assert result.new_findings and not result.clean

        baseline_path = tmp_path / "baseline.json"
        save_baseline(result.findings, path=baseline_path)
        baseline = load_baseline(baseline_path)

        again = lint_paths([target], baseline=baseline)
        assert again.findings  # still present...
        assert again.clean     # ...but grandfathered
        assert again.baselined == len(again.findings)

    def test_new_finding_not_grandfathered(self, tmp_path):
        target = write_tree(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        save_baseline(lint_paths([target]).findings, path=baseline_path)

        # A second unseeded call is a *new* occurrence of the same rule.
        target.write_text(DIRTY + "y = np.random.rand(4)\n",
                          encoding="utf-8")
        result = lint_paths([target],
                            baseline=load_baseline(baseline_path))
        assert len(result.new_findings) == 1
        assert "np.random.rand(4)" in result.new_findings[0].snippet

    def test_fingerprint_survives_line_shift(self, tmp_path):
        target = write_tree(tmp_path)
        before = lint_paths([target]).findings

        # Prepend lines: same violation, different line number.
        target.write_text("# a comment\n# another\n" + DIRTY,
                          encoding="utf-8")
        after = lint_paths([target]).findings
        assert [f.line for f in before] != [f.line for f in after]
        assert ([fingerprint(f) for f in before]
                == [fingerprint(f) for f in after])

    def test_duplicate_findings_counted(self, tmp_path):
        src = DIRTY + "x = np.random.rand(3)\n"
        target = write_tree(tmp_path, source=src)
        findings = lint_paths([target]).findings
        counts = to_baseline(findings)["findings"]
        assert 2 in counts.values()
        # One grandfathered occurrence does not cover both.
        new = filter_new(findings, {fingerprint(findings[0]): 1})
        assert len(new) == len(findings) - 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}


class TestReporters:
    def test_json_schema(self, tmp_path):
        target = write_tree(tmp_path)
        result = lint_paths([target], baseline={})
        payload = render_json(result)
        assert payload["version"] == REPORT_VERSION
        assert payload["files_scanned"] == 1
        assert payload["clean"] is False
        summary = payload["summary"]
        assert set(summary) == {"total", "new", "baselined",
                                "suppressed", "parse_errors",
                                "stale_baseline"}
        assert summary["total"] == summary["new"] == 1
        assert summary["stale_baseline"] == 0
        assert payload["stale_baseline"] == []
        # One rule table for both families, whatever ran.
        assert {row["rule"] for row in payload["rules"]} \
            >= {"RPR000", "RPR001", "ARC001", "ARC006"}
        (finding,) = payload["findings"]
        assert finding["rule"] == "RPR001"
        assert finding["new"] is True
        assert finding["severity"] == "error"
        json.dumps(payload)  # must be serializable as-is

    def test_text_report_mentions_findings_and_summary(self, tmp_path):
        target = write_tree(tmp_path)
        result = lint_paths([target])
        text = render_text(result)
        assert "RPR001" in text
        assert "1 file" in text or "1 files" in text

    def test_text_report_clean(self, tmp_path):
        target = write_tree(tmp_path, source="x = 1\n")
        text = render_text(lint_paths([target]))
        assert "clean" in text

    def test_rule_rows_override_swaps_in_arc_table(self, tmp_path):
        # No override any more: a report over a tree no ARC rule ran on
        # still carries the ARC rows, in the one shared table.
        target = write_tree(tmp_path, source="x = 1\n")
        payload = render_json(lint_paths([target]))
        assert payload["rules"] == rule_table()
        codes = {row["rule"] for row in payload["rules"]}
        assert {"ARC001", "ARC002", "ARC003", "ARC004",
                "ARC005", "ARC006"} <= codes
        assert "ARC000" not in codes
        json.dumps(payload)

    def test_write_json(self, tmp_path):
        target = write_tree(tmp_path)
        out = tmp_path / "report.json"
        write_json(lint_paths([target]), out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["summary"]["total"] == 1

    def test_text_and_json_counts_agree(self, tmp_path):
        # Two occurrences, one grandfathered: every count in the text
        # summary line must match the JSON summary.
        target = write_tree(tmp_path,
                            source=DIRTY + "y = np.random.rand(4)\n")
        findings = lint_paths([target]).findings
        baseline = {fingerprint(findings[0]): 1}
        result = lint_paths([target], baseline=baseline)
        summary = render_json(result)["summary"]
        assert (summary["total"], summary["new"],
                summary["baselined"]) == (2, 1, 1)
        expected = (f"{summary['total']} findings "
                    f"({summary['new']} new, "
                    f"{summary['baselined']} baselined, "
                    f"{summary['suppressed']} suppressed)")
        assert expected in render_text(result)


class TestStaleBaseline:
    def test_fixed_finding_marks_entry_stale(self, tmp_path):
        target = write_tree(tmp_path)
        dirty = lint_paths([target])
        baseline_path = tmp_path / "baseline.json"
        save_baseline(dirty.findings, path=baseline_path)
        baseline = load_baseline(baseline_path)

        target.write_text("x = 1\n", encoding="utf-8")  # fixed
        result = lint_paths([target], baseline=baseline)
        assert result.clean
        assert result.stale_baseline == sorted(baseline)
        payload = render_json(result)
        assert payload["summary"]["stale_baseline"] == len(baseline)
        text = render_text(result)
        assert "stale baseline entry" in text
        assert "--update-baseline" in text

    def test_deleted_file_marks_entry_stale(self, tmp_path):
        target = write_tree(tmp_path)
        other = write_tree(tmp_path, name="clean.py", source="x = 1\n")
        baseline = {fingerprint(f): 1
                    for f in lint_paths([target]).findings}
        target.unlink()
        result = lint_paths([other], baseline=baseline)
        assert result.stale_baseline == sorted(baseline)

    def test_unscanned_existing_file_is_not_stale(self, tmp_path):
        # A partial run must not condemn entries it never looked at.
        first = write_tree(tmp_path, name="first.py")
        second = write_tree(tmp_path, name="second.py")
        baseline = {fingerprint(f): 1
                    for f in lint_paths([first, second]).findings}
        result = lint_paths([first], baseline=baseline)
        assert result.clean
        assert result.stale_baseline == []

    def test_no_baseline_means_no_stale_entries(self, tmp_path):
        result = lint_paths([write_tree(tmp_path)])
        assert result.stale_baseline == []
