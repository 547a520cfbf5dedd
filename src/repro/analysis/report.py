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

REPORT_VERSION = 1


def _finding_dict(finding, new):
    return {
        "rule": finding.rule,
        "severity": finding.severity,
        "file": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "hint": finding.hint,
        "snippet": finding.snippet,
        "new": bool(new),
    }


def render_json(result):
    """The lint report as a JSON-serializable dict (stable schema)."""
    new = set(id(f) for f in result.new_findings)
    stale = result.stale_baseline
    return {
        "version": REPORT_VERSION,
        "files_scanned": result.files_scanned,
        "summary": {
            "total": len(result.findings),
            "new": len(result.new_findings),
            "baselined": result.baselined,
            "suppressed": result.suppressed,
            "parse_errors": result.parse_errors,
            "stale_baseline": len(stale),
        },
        "clean": result.clean,
        "rules": rule_table(),
        "findings": [_finding_dict(f, id(f) in new)
                     for f in result.findings],
        "stale_baseline": stale,
    }


def render_text(result):
    """Human-readable report: one line per finding, then a summary."""
    new = set(id(f) for f in result.new_findings)
    lines = []
    for finding in result.findings:
        marker = "" if id(finding) in new else " (baselined)"
        lines.append(f"{finding.location()} {finding.rule} "
                     f"{finding.severity}: {finding.message}{marker}")
        if finding.hint and id(finding) in new:
            lines.append(f"    hint: {finding.hint}")
    summary = (f"{result.files_scanned} files scanned: "
               f"{len(result.findings)} findings "
               f"({len(result.new_findings)} new, "
               f"{result.baselined} baselined, "
               f"{result.suppressed} suppressed)")
    if lines:
        lines.append("")
    stale = result.stale_baseline
    for key in stale:
        lines.append(f"stale baseline entry (no longer matches): "
                     f"{key}")
    if stale:
        lines.append(f"{len(stale)} stale baseline entries — "
                     f"run with --update-baseline to prune")
    lines.append(summary)
    lines.append("lint: " + ("clean" if result.clean else "NEW FINDINGS"))
    return "\n".join(lines)


def write_json(result, path):
    """Write the JSON report to ``path``."""
    out = Path(path)
    out.write_text(json.dumps(render_json(result), indent=2) + "\n",
                   encoding="utf-8")
    return out
