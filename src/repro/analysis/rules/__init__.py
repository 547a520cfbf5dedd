"""One rule registry for the static analyzer: ``RPRnnn`` and ``ARCnnn``.

Every rule has a stable identifier, a severity, a fix hint and a
rationale.  Rules encode the invariants the reproduction's correctness
claims rest on — seeded randomness, no wall-clock in simulated paths,
no iteration-order-dependent numerics, a layered package DAG with one
kernel seam and one billing seam — so refactors that silently break
them fail in CI instead of in a benchmark three PRs later.

A rule is a check over the parsed project
(:class:`~repro.analysis.graphing.ProjectGraph`) and the architectural
contract.  A per-file ``RPR`` rule is a project rule that looks at one
module at a time: it yields ``(node, message)`` pairs from
:meth:`Rule.check` for every scanned file.  A whole-program ``ARC``
rule (``project = True``, :mod:`~repro.analysis.rules.arch`) overrides
:meth:`Rule.findings` and runs only when the package root is scanned.
:mod:`~repro.analysis.lint` applies inline ``# repro: noqa[CODE]``
suppressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = ["Finding", "Rule", "all_rules", "dotted_name", "register",
           "rule_table"]

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One analyzer hit, pinned to a file position.

    ``snippet`` is the stripped source line the finding points at.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    snippet: str

    def location(self):
        """``path:line:col`` for reports."""
        return f"{self.path}:{self.line}:{self.col}"


def dotted_name(node):
    """``a.b.c`` for an Attribute/Name chain, or None for anything
    dynamic (subscripts, calls) where the chain cannot be read
    statically."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """Base class: one identifier, one severity, one check."""

    rule_id = None
    severity = None
    title = None
    hint = None
    rationale = None
    #: Whole-program rule: runs over the package graph, and only when
    #: the package root lies inside the scanned paths.
    project = False

    def check(self, module):
        """Yield ``(node, message)`` pairs for violations in one
        :class:`~repro.analysis.graphing.ModuleInfo`."""
        raise NotImplementedError

    def findings(self, graph, contract):
        """Every :class:`Finding` of this rule in ``graph``: by default
        :meth:`check` over each scanned module in turn."""
        for module in graph.files:
            for node, message in self.check(module):
                yield self.finding(module, node, message)

    def finding(self, module, where, message):
        """A :class:`Finding` in ``module`` at an AST node or a line."""
        if isinstance(where, int):
            line, col = where, 0
        else:
            line = getattr(where, "lineno", 1)
            col = getattr(where, "col_offset", 0)
        return Finding(rule=self.rule_id, severity=self.severity,
                       path=module.path, line=line, col=col,
                       message=message, hint=self.hint,
                       snippet=module.line_text(line))


_REGISTRY = {}


def register(cls):
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"{cls.rule_id}: bad severity {cls.severity!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


@register
class ParseError(Rule):
    """RPR000: a file that does not parse.  The parse reports it (a
    rule has no tree to look at), once per file, whichever rules run."""

    rule_id = "RPR000"
    severity = "error"
    title = "file does not parse"
    hint = "fix the syntax error"
    rationale = "a syntax error must fail the gate, not the analyzer"

    def check(self, module):
        return ()

    def error(self, path, exc):
        """The finding for ``SyntaxError`` ``exc`` raised by ``path``."""
        return Finding(rule=self.rule_id, severity=self.severity,
                       path=path, line=exc.lineno or 1,
                       col=(exc.offset or 1) - 1,
                       message=f"file does not parse: {exc.msg}",
                       hint=self.hint, snippet=(exc.text or "").strip())


def all_rules():
    """Fresh instances of every registered rule, ordered by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_table():
    """id/severity/title/hint/rationale rows for docs and
    ``--format json``."""
    return [{"rule": cls.rule_id, "severity": cls.severity,
             "title": cls.title, "hint": cls.hint,
             "rationale": cls.rationale or ""}
            for _, cls in sorted(_REGISTRY.items())]


# Importing the rule modules populates the registry; they import names
# from this (partially initialized) package, so they must come after
# the definitions above.
from . import arch, determinism, hygiene, numerics  # noqa: E402,F401
