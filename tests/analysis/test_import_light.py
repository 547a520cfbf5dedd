"""The analysis package's import-weight contract.

Two directions, both cheap to break silently:

* the analyzer imports only the stdlib (``repro lint`` runs in CI
  before anything heavy is warmed up), and
* ``import repro`` never loads the analyzer: the library's runtime
  checks live in :mod:`repro.perf.sanitize`, and only ``repro lint``
  and the tools import :mod:`repro.analysis`.
"""

import ast
import subprocess
import sys
from pathlib import Path

import repro.analysis as analysis_pkg

ANALYSIS_DIR = Path(analysis_pkg.__file__).parent
SRC_DIR = ANALYSIS_DIR.parents[1]

#: Top-level modules the analysis package may import absolutely.
ALLOWED_ABSOLUTE = {"__future__", "ast", "dataclasses", "functools",
                    "json", "pathlib", "re"}


def iter_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"),
                     filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or ""


class TestAnalysisStaysLight:
    def test_only_stdlib_imports(self):
        files = sorted(ANALYSIS_DIR.rglob("*.py"))
        assert files, f"no analysis sources under {ANALYSIS_DIR}"
        for path in files:
            for level, module in iter_imports(path):
                head = module.split(".")[0]
                if level == 0:
                    assert head in ALLOWED_ABSOLUTE, (
                        f"{path.name} imports {module!r}; the analysis "
                        f"package allows only the stdlib")
                else:
                    package = path.parents[level - 1]
                    assert package == ANALYSIS_DIR \
                        or ANALYSIS_DIR in package.parents, (
                        f"{path.name} relative-imports {module!r} from "
                        f"outside the analysis package")

    def test_import_repro_skips_linter_modules(self):
        code = (
            "import sys\n"
            "import repro\n"
            "mods = sorted(m for m in sys.modules\n"
            "              if m.startswith('repro.analysis'))\n"
            "assert not mods, mods\n"
            "print('ok')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            text=True, env={"PYTHONPATH": str(SRC_DIR), "PATH": ""})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


class TestCliStartup:
    def test_version_works(self):
        done = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC_DIR), "PATH": ""})
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("repro ")
