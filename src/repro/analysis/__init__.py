"""The static analyzer behind ``repro lint``.

It parses every scanned file once (:mod:`~repro.analysis.lint`) and
machine-checks the invariants every numeric claim rests on
(:mod:`~repro.analysis.rules`).  Per-file ``RPR`` rules: seeded RNG
streams, no wall-clock in simulated paths, no iteration-order-dependent
accumulation, hygiene rules that keep failures loud.  Whole-program
``ARC`` rules over the project graph of ``src/repro``
(:mod:`~repro.analysis.graphing`) against the contract in
:mod:`~repro.analysis.layers`: layering, kernel-seam and billing-seam
usage, simulated-clock purity, RNG provenance, and public-API drift.

The runtime half — the sanitizers that catch NaN/Inf, malformed CSR
structures and broken shape/dtype contracts behind ``FLAGS.sanitize`` —
lives in :mod:`repro.perf.sanitize`, next to the flag it reads.  The
library never imports this package; only ``repro lint`` and the tools
do, and every module here imports nothing but the stdlib.
"""

from .graphing import ProjectGraph, build_project
from .layers import CONTRACT, ArchConfig, load_arch_config
from .lint import LintResult, iter_python_files, lint_paths
from .report import REPORT_VERSION, render_json, render_text, write_json
from .rules import Finding, Rule, all_rules, rule_table

__all__ = [
    "Finding", "Rule", "all_rules", "rule_table",
    "LintResult", "lint_paths", "iter_python_files",
    "REPORT_VERSION", "render_json", "render_text", "write_json",
    "ProjectGraph", "build_project",
    "ArchConfig", "CONTRACT", "load_arch_config",
]
