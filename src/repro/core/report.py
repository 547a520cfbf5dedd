"""Plain-text table and series rendering for benchmark output.

Benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

__all__ = ["format_table", "format_series"]


def _cell(value):
    if value is None:
        return "N/A"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)


def format_table(rows, columns=None, title=None):
    """Render dict-rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    columns = columns or list(rows[0].keys())
    cells = [[_cell(row.get(col)) for col in columns] for row in rows]
    widths = [max(len(str(col)), *(len(line[i]) for line in cells))
              for i, col in enumerate(columns)]
    header = " | ".join(str(col).ljust(w)
                        for col, w in zip(columns, widths))
    rule = "-+-".join("-" * w for w in widths)
    body = "\n".join(" | ".join(cell.ljust(w)
                                for cell, w in zip(line, widths))
                     for line in cells)
    out = f"{header}\n{rule}\n{body}"
    if title:
        out = f"{title}\n{'=' * len(title)}\n{out}"
    return out


def format_series(points, label="series", x_name="x", y_name="y"):
    """Render (x, y) pairs as one labelled line per point."""
    lines = [f"[{label}]"]
    for x, y in points:
        lines.append(f"  {x_name}={_cell(float(x)):>10s}  "
                     f"{y_name}={_cell(float(y))}")
    return "\n".join(lines)
