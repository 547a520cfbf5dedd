"""The static analyzer: one parse, every rule, noqa.

Usage (library)::

    from repro.analysis import lint_paths
    result = lint_paths(["src"])
    for finding in result.findings:
        print(finding.location(), finding.message)

Usage (CLI): ``repro lint [--format json] [--out PATH] [paths...]`` —
see :mod:`repro.cli`.  It exits 1 on any finding.

Every scanned file is parsed once into a
:class:`~repro.analysis.graphing.ModuleInfo`.  The per-file ``RPR``
rules look at each module in turn; the whole-program ``ARC`` rules run
over the package root (``src/repro`` by default, ``root=`` for other
projects) against the architectural contract
(:data:`~repro.analysis.layers.CONTRACT`, ``contract=`` for others),
whenever that root lies inside the scanned paths.

Suppression: a finding on a line containing ``# repro: noqa[RPR001]``
(or a blanket ``# repro: noqa``) is dropped and counted in
``LintResult.suppressed``.  Suppressions are for *intentional*
violations and should carry a nearby comment saying why.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from .graphing import ModuleInfo, build_project
from .layers import load_arch_config
from .rules import ParseError, all_rules

__all__ = ["DEFAULT_ROOT", "LintResult", "default_root", "lint_paths",
           "iter_python_files", "parse_paths"]

#: The package the ARC rules police: this analyzer's own source tree.
DEFAULT_ROOT = Path(__file__).resolve().parents[1]

#: ``# repro: noqa`` or ``# repro: noqa[RPR001,RPR005]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")

_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache"}

#: Skipped only when they are build artifacts, i.e. not python
#: packages — ``src/repro/dist`` is source and must be scanned.
_ARTIFACT_DIRS = {"build", "dist"}


def _skip_candidate(candidate):
    for index, part in enumerate(candidate.parts[:-1]):
        if part in _SKIP_DIRS:
            return True
        if part in _ARTIFACT_DIRS:
            directory = Path(*candidate.parts[:index + 1])
            if not (directory / "__init__.py").exists():
                return True
    return False


@dataclass
class LintResult:
    """Outcome of one lint run.

    ``findings`` holds every unsuppressed hit; the lint gate exits
    nonzero exactly when it is non-empty.
    """

    findings: list = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    parse_errors: int = 0

    @property
    def clean(self):
        """True when the gate should pass."""
        return not self.findings


def default_root():
    """The package root the ARC rules analyze: ``src/repro`` relative
    to the working directory if present (so display paths match the
    repo layout CI uses), else the installed package."""
    candidate = Path("src") / "repro"
    return candidate if candidate.is_dir() else DEFAULT_ROOT


def iter_python_files(paths):
    """Yield every ``.py`` file under ``paths`` (files pass through),
    sorted, skipping caches and VCS internals."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
        for candidate in candidates:
            if _skip_candidate(candidate):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _display_path(path):
    """Canonical finding path: cwd-relative posix when possible.

    Explicit file arguments (``repro lint ./src/x.py``, absolute
    paths) report the same finding paths as whole-tree runs.
    """
    path = Path(path)
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _suppressed_codes(line_text):
    """None if the line has no noqa marker; otherwise the frozenset of
    suppressed rule ids (empty frozenset = blanket suppression)."""
    match = _NOQA_RE.search(line_text)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return frozenset()
    return frozenset(code.strip() for code in codes.split(",")
                     if code.strip())


def _parse(path, display):
    """``path`` parsed into a :class:`ModuleInfo` shown as ``display``,
    or the ``RPR000`` finding when it does not parse — a syntax error
    must fail the gate, not the analyzer."""
    source = Path(path).read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return ParseError().error(display, exc)
    return ModuleInfo(path=display, tree=tree, lines=source.splitlines())


def parse_paths(paths):
    """Every python file under ``paths``, parsed once: a
    :class:`ModuleInfo` per file, or its ``RPR000``
    :class:`~repro.analysis.rules.Finding` if it does not parse."""
    return [_parse(path, _display_path(path))
            for path in iter_python_files(paths)]


def _covers(paths, root):
    """True when ``root`` is one of ``paths`` or lies inside one."""
    root = root.resolve()
    return any(path == root or path in root.parents
               for path in (Path(raw).resolve() for raw in paths))


def lint_paths(paths, rules=None, root=None, contract=None):
    """Lint every python file under ``paths``.

    Parameters
    ----------
    paths:
        Files or directories to scan.
    rules:
        Rule instances to run (default: every registered rule).
    root:
        Package source directory the project (``ARC``) rules analyze
        when it lies inside ``paths`` (default: :func:`default_root`).
    contract:
        Architectural contract dict (default:
        :data:`~repro.analysis.layers.CONTRACT`).
    """
    rules = list(rules) if rules is not None else all_rules()
    root = Path(root) if root is not None else default_root()
    if not any(rule.project for rule in rules) or not _covers(paths, root):
        root = None
    parsed = parse_paths(paths)
    result = LintResult(files_scanned=len(parsed))
    modules = [item for item in parsed if isinstance(item, ModuleInfo)]
    result.findings = [item for item in parsed
                       if not isinstance(item, ModuleInfo)]
    result.parse_errors = len(result.findings)
    graph = build_project(modules, root)
    contract = load_arch_config(contract) if root is not None else None
    by_path = {module.path: module for module in modules}
    for rule in rules:
        if rule.project and root is None:
            continue
        for finding in rule.findings(graph, contract):
            codes = _suppressed_codes(
                by_path[finding.path].line_text(finding.line))
            if codes is not None and (not codes or finding.rule in codes):
                result.suppressed += 1
            else:
                result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result

