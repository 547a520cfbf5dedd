"""Generate docs/api.md: an index of the public API.

Walks every repro package, lists each module's ``__all__`` with the
first line of its docstring, and writes a markdown reference.  Run after
changing the public surface::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PACKAGES = ["repro", "repro.graph", "repro.partition", "repro.sampling",
            "repro.batching", "repro.nn", "repro.kernels",
            "repro.transfer", "repro.dist", "repro.core", "repro.perf",
            "repro.serve", "repro.faults", "repro.fleet", "repro.tasks",
            "repro.analysis"]


def first_line(obj):
    doc = inspect.getdoc(obj) or ""
    return doc.strip().splitlines()[0] if doc.strip() else "(undocumented)"


def kind_of(obj):
    if inspect.isclass(obj):
        return "class"
    if callable(obj):
        return "function"
    return "constant"


def module_section(module):
    lines = [f"### `{module.__name__}`", ""]
    summary = first_line(module)
    lines.append(summary)
    lines.append("")
    names = getattr(module, "__all__", [])
    rows = []
    for name in names:
        if name.startswith("__"):
            continue
        obj = getattr(module, name, None)
        if obj is None:
            continue
        home = inspect.getmodule(obj)
        if home is not None and home is not module \
                and home.__name__.startswith("repro"):
            continue  # re-export; documented at its home module
        rows.append(f"| `{name}` | {kind_of(obj)} | "
                    f"{first_line(obj)} |")
    if not rows:
        return None
    lines.append("| name | kind | summary |")
    lines.append("|---|---|---|")
    lines.extend(rows)
    lines.append("")
    return "\n".join(lines)


def main(out_path="docs/api.md"):
    sections = ["# API reference",
                "",
                "Generated by `python tools/gen_api_docs.py`; one row "
                "per public name, at its home module.", ""]
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        sections.append(f"## {package_name}")
        sections.append("")
        modules = [package]
        if hasattr(package, "__path__"):
            for info in sorted(pkgutil.iter_modules(package.__path__),
                               key=lambda item: item.name):
                modules.append(importlib.import_module(
                    f"{package_name}.{info.name}"))
        for module in modules:
            section = module_section(module)
            if section:
                sections.append(section)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(sections))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
