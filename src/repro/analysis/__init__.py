"""Static analysis & runtime sanitizers for the reproduction.

Two halves of one correctness story:

* the **static analyzer** (:mod:`~repro.analysis.lint`,
  :mod:`~repro.analysis.rules`, ``repro lint``) parses every scanned
  file once and machine-checks the invariants every numeric claim
  rests on.  Per-file ``RPR`` rules: seeded RNG streams, no wall-clock
  in simulated paths, no iteration-order-dependent accumulation,
  hygiene rules that keep failures loud.  Whole-program ``ARC`` rules
  over the project graph of ``src/repro``
  (:mod:`~repro.analysis.graphing`) against the contract in
  :mod:`~repro.analysis.layers`: layering, kernel-seam and billing-seam
  usage, simulated-clock purity, RNG provenance, and public-API drift;
  and
* the **sanitizers** (:mod:`~repro.analysis.sanitize`) catch the
  corresponding *runtime* corruption — NaN/Inf in activations and
  gradients, malformed CSR structures, broken shape/dtype contracts —
  behind the zero-cost-when-off ``FLAGS.sanitize`` toggle.

This package stays import-light by design (stdlib ``ast`` + numpy +
the flags/errors modules): ``repro lint`` must not pay for scipy or the
training stack, and importing :mod:`repro` must not pay for the linter.
The hot paths import :mod:`~repro.analysis.sanitize` directly, and this
``__init__`` resolves the linter names lazily (PEP 562), so ``import
repro`` never executes the analyzer modules.
"""

import importlib

__all__ = [
    "Finding", "Rule", "all_rules", "rule_table",
    "LintResult", "lint_file", "lint_paths", "iter_python_files",
    "DEFAULT_BASELINE_PATH", "load_baseline", "save_baseline",
    "to_baseline", "filter_new",
    "REPORT_VERSION", "render_json", "render_text", "write_json",
    "check_finite", "check_csr", "check_contract", "sanitize_active",
    "ProjectGraph", "build_project",
    "ArchConfig", "CONTRACT", "load_arch_config",
]

# name -> defining submodule, resolved on first attribute access.
_LAZY = {
    "DEFAULT_BASELINE_PATH": "baseline", "filter_new": "baseline",
    "load_baseline": "baseline", "save_baseline": "baseline",
    "to_baseline": "baseline",
    "LintResult": "lint", "iter_python_files": "lint",
    "lint_file": "lint", "lint_paths": "lint",
    "REPORT_VERSION": "report", "render_json": "report",
    "render_text": "report", "write_json": "report",
    "Finding": "rules", "Rule": "rules", "all_rules": "rules",
    "rule_table": "rules",
    "check_contract": "sanitize", "check_csr": "sanitize",
    "check_finite": "sanitize", "sanitize_active": "sanitize",
    "ProjectGraph": "graphing", "build_project": "graphing",
    "ArchConfig": "layers", "CONTRACT": "layers",
    "load_arch_config": "layers",
}


def __getattr__(name):
    try:
        submodule = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module("." + submodule, __name__),
                    name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
