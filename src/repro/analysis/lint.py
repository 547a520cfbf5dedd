"""The static analyzer: one parse, every rule, noqa, baselines.

Usage (library)::

    from repro.analysis import lint_paths, load_baseline
    result = lint_paths(["src"], baseline=load_baseline())
    for finding in result.new_findings:
        print(finding.location(), finding.message)

Usage (CLI): ``repro lint [--format json] [--baseline]
[--update-baseline] [paths...]`` — see :mod:`repro.cli`.

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
violations and should carry a nearby comment saying why; accidental
pre-existing findings belong in the baseline instead, which
grandfathers them without touching the offending lines.

This module must stay import-light (stdlib only): ``repro lint`` runs
in CI before anything heavy is warmed up, and the analysis layer must
never be the reason CLI startup slows down.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from .baseline import filter_new, fingerprint
from .graphing import ModuleInfo, build_project
from .layers import load_arch_config
from .rules import ParseError, all_rules

__all__ = ["DEFAULT_ROOT", "LintResult", "default_root", "lint_file",
           "lint_paths", "iter_python_files", "parse_paths",
           "stale_fingerprints"]

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

    ``findings`` holds every unsuppressed hit; ``new_findings`` is the
    subset not grandfathered by the baseline (identical to ``findings``
    when no baseline was applied).  The lint gate exits nonzero exactly
    when ``new_findings`` is non-empty.
    """

    findings: list = field(default_factory=list)
    new_findings: list = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    parse_errors: int = 0
    #: Baseline fingerprints that no longer match anything: their rule
    #: ran on their file and found no such finding, or the file is
    #: gone.  ``--update-baseline`` prunes them.
    stale_baseline: list = field(default_factory=list)

    @property
    def baselined(self):
        """Findings present but grandfathered by the baseline."""
        return len(self.findings) - len(self.new_findings)

    @property
    def clean(self):
        """True when the gate should pass."""
        return not self.new_findings


def default_root():
    """The package root the ARC rules analyze: ``src/repro`` relative
    to the working directory if present (so display paths match the
    repo layout CI and baselines use), else the installed package."""
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
    paths) must fingerprint identically to whole-tree runs, or the
    baseline stops grandfathering them.
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


def _run(parsed, rules, root=None, contract=None, baseline=None):
    """Run ``rules`` over ``parsed`` (see :func:`parse_paths`); the
    project rules run only when ``root`` is given."""
    result = LintResult(files_scanned=len(parsed))
    modules = [item for item in parsed if isinstance(item, ModuleInfo)]
    result.findings = [item for item in parsed
                       if not isinstance(item, ModuleInfo)]
    result.parse_errors = len(result.findings)
    graph = build_project(modules, root)
    contract = load_arch_config(contract) if root is not None else None
    by_path = {module.path: module for module in modules}
    scanned = {item.path for item in parsed}
    package = {info.path for info in graph.modules.values()}
    covered = {ParseError.rule_id: scanned}   # rule id -> paths it saw
    for rule in rules:
        if rule.project and root is None:
            continue
        covered[rule.rule_id] = package if rule.project else scanned
        for finding in rule.findings(graph, contract):
            codes = _suppressed_codes(
                by_path[finding.path].line_text(finding.line))
            if codes is not None and (not codes or finding.rule in codes):
                result.suppressed += 1
            else:
                result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if baseline is not None:
        result.new_findings = filter_new(result.findings, baseline)
        result.stale_baseline = stale_fingerprints(
            result.findings, baseline, covered)
    else:
        result.new_findings = list(result.findings)
    return result


def lint_file(path, rules=None, display_path=None):
    """Run the per-file rules over one file; returns ``(findings,
    suppressed_count)``.  ``display_path`` is the path findings carry
    (default: ``path`` as given)."""
    display = display_path if display_path is not None \
        else Path(path).as_posix()
    result = _run([_parse(path, display)],
                  rules if rules is not None else all_rules())
    return result.findings, result.suppressed


def lint_paths(paths, rules=None, baseline=None, root=None,
               contract=None):
    """Lint every python file under ``paths``.

    Parameters
    ----------
    paths:
        Files or directories to scan.
    rules:
        Rule instances to run (default: every registered rule).
    baseline:
        Baseline mapping from :func:`~repro.analysis.baseline.
        load_baseline`; when given, ``new_findings`` excludes
        grandfathered hits.  ``None`` disables baselining.
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
    return _run(parse_paths(paths), rules, root=root, contract=contract,
                baseline=baseline)


def stale_fingerprints(findings, baseline, covered):
    """Baseline entries that no longer match any finding.

    ``covered`` maps each rule id that ran to the display paths it
    looked at.  An entry is stale when its rule ran on its file and the
    fingerprint matched nothing, or when the file no longer exists.
    Entries no rule run looked at are *not* stale — a partial run
    (explicit file arguments, or a scope without the package root for
    the ``ARC`` rules) must not condemn the rest of the baseline.
    """
    current = {fingerprint(finding) for finding in findings}
    stale = []
    for key in sorted(baseline):
        if key in current:
            continue
        path, rule = key.split("::", 2)[:2]
        if path in covered.get(rule, ()) or not Path(path).exists():
            stale.append(key)
    return stale
