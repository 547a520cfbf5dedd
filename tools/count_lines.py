"""Count source lines the way the ROADMAP's size gates do.

A line counts when it holds a token that is not a comment and lies
outside every docstring (the first string statement of a module, class
or function).  Blank lines, comment-only lines and docstring lines do
not count; the lines of a multi-line non-docstring string do.

Prints per-package totals and the grand total::

    python tools/count_lines.py              # src/repro
    python tools/count_lines.py src/repro/faults tests/faults
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Token types that never make a line count on their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counted_lines(text):
    """Line numbers (1-based) that count in one file's source ``text``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return code - docstring_lines(ast.parse(text))


def count_source(text):
    """Counted lines of one file's source ``text``."""
    return len(counted_lines(text))


def count_tree(root):
    """``{package: lines}`` over every ``*.py`` under ``root``, keyed by
    the first directory below ``root`` (``"."`` for files in it)."""
    root = Path(root)
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    totals = Counter()
    for path in files:
        parts = path.relative_to(root).parts if path != root else ()
        package = parts[0] if len(parts) > 1 else "."
        totals[package] += count_source(path.read_text(encoding="utf-8"))
    return totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories, relative to the "
                             "repository root (default: src/repro)")
    args = parser.parse_args(argv)
    grand = 0
    for root in args.paths:
        totals = count_tree(ROOT / root)
        for package, lines in sorted(totals.items(),
                                     key=lambda item: -item[1]):
            print(f"{lines:7d}  {package}")
        print(f"{sum(totals.values()):7d}  {root} (total)")
        grand += sum(totals.values())
    if len(args.paths) > 1:
        print(f"{grand:7d}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
