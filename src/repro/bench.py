"""The bench table: one way to produce the tracked ``BENCH_*.json``.

The paper's contribution is that every system is measured by *one*
harness under the same settings; the repo's own benches follow the same
rule.  :data:`BENCHES` maps a bench name to the module holding its
driver, and that module also holds the bench's ``tables(report)``
renderer (what a run prints) and its ``checks(report)`` exit rule
(``{label: bool}``; any ``False`` fails the run).  The tracked file
follows from the name by one rule (:func:`result_path`) and is written
by one writer (:func:`write_report`), so a tracked result has exactly
one byte representation and CI can regenerate and diff it.  One tracked
file is not in the table: ``BENCH_cache.json`` comes from
``benchmarks/bench_cache_tiers.py``, which writes it through the same
:func:`write_report`.

``repro bench <name>`` and the ``benchmarks/bench_*.py`` wrappers are
both :func:`run_bench`.  Non-default sweeps go through the drivers'
own keywords (``run_bench("fleet", replica_counts=(1, 2, 16))``), not
through CLI flags.

Drivers are imported on use: naming a bench must not load the serving
or training stack.
"""

from __future__ import annotations

import json
from importlib import import_module
from pathlib import Path

__all__ = ["BENCHES", "result_path", "write_report", "run_bench"]

#: name -> (module, driver function).  The module also defines
#: ``tables(report) -> str`` and ``checks(report) -> {label: bool}``.
BENCHES = {
    "serve": ("repro.serve.bench", "run_serve_bench"),
    "fleet": ("repro.fleet.bench", "run_fleet_bench"),
    "faults": ("repro.faults.bench", "run_fault_bench"),
    "fleet-chaos": ("repro.fleet.chaos", "run_fleet_chaos_bench"),
}

#: The source checkout's root, where the tracked results live.
_ROOT = Path(__file__).resolve().parents[2]


def result_path(name, quick=False, out=None):
    """Where bench ``name`` writes: ``out`` when given, else
    ``BENCH_<name>.json`` at the repo root (``-`` in the name becomes
    ``_``) — or, for a ``quick`` smoke, its git-ignored ``.quick.json``
    sibling, so a smoke run can never overwrite a checked-in sweep."""
    if out:
        return Path(out)
    suffix = ".quick.json" if quick else ".json"
    return _ROOT / f"BENCH_{name.replace('-', '_')}{suffix}"


def write_report(report, path):
    """Serialise one bench report — the only ``BENCH_*.json`` writer."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def run_bench(name, quick=False, out=None, **sweep):
    """Run one registered bench end to end.

    Calls the driver (``sweep`` passes through as its keywords), prints
    its tables and one ``<label>: ok|VIOLATED`` line per check, and
    writes the report to :func:`result_path`.  Returns ``(report, ok)``
    with ``ok`` true when every check held.  Driver failures surface as
    :class:`~repro.errors.ReproError`.
    """
    module_name, driver = BENCHES[name]
    module = import_module(module_name)
    report = getattr(module, driver)(quick=quick, **sweep)
    print(module.tables(report))
    checks = module.checks(report)
    for label, held in checks.items():
        print(f"{label}: {'ok' if held else 'VIOLATED'}")
    print(f"wrote {write_report(report, result_path(name, quick, out))}")
    return report, all(checks.values())
