"""The analysis layer's import-weight contract.

Two directions, both cheap to break silently:

* the linter must not pull scipy or the training stack (``repro lint``
  runs in CI before anything heavy is warmed up), and
* ``import repro`` — whose hot paths import
  :mod:`repro.analysis.sanitize` — must not execute the linter modules
  (``lint``/``rules``/``report``/``baseline`` resolve lazily via the
  package's PEP 562 ``__getattr__``).
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import repro.analysis as analysis_pkg

ANALYSIS_DIR = Path(analysis_pkg.__file__).parent
SRC_DIR = ANALYSIS_DIR.parents[1]

#: Top-level modules the analysis package may import absolutely.
#: numpy is for the sanitizers; everything else is stdlib.
ALLOWED_ABSOLUTE = {"__future__", "ast", "dataclasses", "functools",
                    "importlib", "json", "numpy", "pathlib", "re"}

#: repro modules the package may reach via relative imports.
ALLOWED_RELATIVE_HEADS = {"errors", "perf", "baseline", "lint",
                          "report", "rules", "sanitize", "determinism",
                          "hygiene", "numerics", "graphing",
                          "layers"}

#: The analyzer's modules: none may load on ``import repro``.
ANALYZER_MODULES = ("lint", "rules", "report", "baseline", "graphing",
                    "layers")


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
    def test_only_stdlib_and_numpy_imports(self):
        files = sorted(ANALYSIS_DIR.rglob("*.py"))
        assert files, f"no analysis sources under {ANALYSIS_DIR}"
        for path in files:
            for level, module in iter_imports(path):
                head = module.split(".")[0]
                if level == 0:
                    assert head in ALLOWED_ABSOLUTE, (
                        f"{path.name} imports {module!r}; the analysis "
                        f"layer allows only stdlib + numpy")
                else:
                    assert head in ALLOWED_RELATIVE_HEADS \
                        or module == "", (
                        f"{path.name} relative-imports {module!r}, "
                        f"outside the sanctioned light modules")

    def test_import_repro_skips_linter_modules(self):
        code = (
            "import sys\n"
            "import repro\n"
            "mods = sorted(m for m in sys.modules\n"
            "              if m.startswith('repro.analysis'))\n"
            "assert 'repro.analysis.sanitize' in mods, mods\n"
            f"for heavy in {ANALYZER_MODULES!r}:\n"
            "    assert 'repro.analysis.' + heavy not in mods, mods\n"
            "print('ok')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            text=True, env={"PYTHONPATH": str(SRC_DIR), "PATH": ""})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_lazy_names_resolve(self):
        # PEP 562 access must hand back the real objects.
        assert analysis_pkg.lint_paths.__module__ \
            == "repro.analysis.lint"
        assert analysis_pkg.check_csr.__module__ \
            == "repro.analysis.sanitize"
        assert analysis_pkg.all_rules.__module__ \
            == "repro.analysis.rules"
        assert analysis_pkg.build_project.__module__ \
            == "repro.analysis.graphing"
        assert analysis_pkg.load_arch_config.__module__ \
            == "repro.analysis.layers"
        assert analysis_pkg.CONTRACT["layers"]
        with pytest.raises(AttributeError):
            analysis_pkg.not_a_real_name

    def test_dir_lists_public_api(self):
        listed = dir(analysis_pkg)
        for name in analysis_pkg.__all__:
            assert name in listed


class TestCliStartup:
    def test_version_works(self):
        done = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC_DIR), "PATH": ""})
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("repro ")
