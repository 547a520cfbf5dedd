"""Reporter output: the JSON schema and the text summary."""

import json
import textwrap

from repro.analysis import (REPORT_VERSION, lint_paths, render_json,
                            render_text, rule_table, write_json)

DIRTY = textwrap.dedent("""
    import numpy as np
    x = np.random.rand(3)
""")


def write_tree(tmp_path, name="dirty.py", source=DIRTY):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


class TestReporters:
    def test_json_schema(self, tmp_path):
        target = write_tree(tmp_path)
        payload = render_json(lint_paths([target]))
        assert payload["version"] == REPORT_VERSION
        assert payload["files_scanned"] == 1
        assert payload["clean"] is False
        summary = payload["summary"]
        assert set(summary) == {"total", "suppressed", "parse_errors"}
        assert summary["total"] == 1
        # One rule table for both families, whatever ran.
        assert {row["rule"] for row in payload["rules"]} \
            >= {"RPR000", "RPR001", "ARC001", "ARC006"}
        (finding,) = payload["findings"]
        assert finding["rule"] == "RPR001"
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
        # Two findings and one suppressed: every count in the text
        # summary line must match the JSON summary.
        target = write_tree(tmp_path, source=(
            DIRTY + "y = np.random.rand(4)\n"
            "z = np.random.rand(5)  # repro: noqa[RPR001]\n"))
        result = lint_paths([target])
        summary = render_json(result)["summary"]
        assert (summary["total"], summary["suppressed"]) == (2, 1)
        expected = (f"{summary['total']} findings "
                    f"({summary['suppressed']} suppressed)")
        assert expected in render_text(result)
