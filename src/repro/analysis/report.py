"""Text and JSON reporters for lint results.

The text reporter is for humans at a terminal; the JSON reporter is the
machine contract (CI uploads it as an artifact).  The JSON schema is
pinned by ``tests/analysis/test_baseline_report.py`` — bump
``REPORT_VERSION`` on any breaking change.
"""

from __future__ import annotations

import json
from pathlib import Path

from .rules import rule_table

__all__ = ["REPORT_VERSION", "render_json", "render_text", "write_json"]

REPORT_VERSION = 2


def _finding_dict(finding):
    return {
        "rule": finding.rule,
        "severity": finding.severity,
        "file": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "hint": finding.hint,
        "snippet": finding.snippet,
    }


def render_json(result):
    """The lint report as a JSON-serializable dict (stable schema)."""
    return {
        "version": REPORT_VERSION,
        "files_scanned": result.files_scanned,
        "summary": {
            "total": len(result.findings),
            "suppressed": result.suppressed,
            "parse_errors": result.parse_errors,
        },
        "clean": result.clean,
        "rules": rule_table(),
        "findings": [_finding_dict(f) for f in result.findings],
    }


def render_text(result):
    """Human-readable report: one line per finding, then a summary."""
    lines = []
    for finding in result.findings:
        lines.append(f"{finding.location()} {finding.rule} "
                     f"{finding.severity}: {finding.message}")
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    if lines:
        lines.append("")
    lines.append(f"{result.files_scanned} files scanned: "
                 f"{len(result.findings)} findings "
                 f"({result.suppressed} suppressed)")
    lines.append("lint: " + ("clean" if result.clean else "FINDINGS"))
    return "\n".join(lines)


def write_json(result, path):
    """Write the JSON report to ``path``."""
    out = Path(path)
    out.write_text(json.dumps(render_json(result), indent=2) + "\n",
                   encoding="utf-8")
    return out
