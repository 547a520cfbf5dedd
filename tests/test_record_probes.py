"""The benchmark of record's contract with the program it measures.

``benchmarks/record/`` may not be edited by a change it judges, and it
reaches into ``repro.*`` by name: ``trace.py`` rebinds the callables in
its probe table, ``workloads.py`` imports what it drives.  A rename that
breaks either fails here, in tier 1, not in the driver's run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

RECORD = Path(__file__).resolve().parents[1] / "benchmarks" / "record"


def load_record_module(name, monkeypatch):
    """Import ``benchmarks/record/<name>.py`` by path (``trace`` would
    otherwise resolve to the stdlib module)."""
    spec = importlib.util.spec_from_file_location(
        f"record_{name}", RECORD / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered while executing: dataclasses look their module up.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_run_probe_resolves(monkeypatch):
    trace = load_record_module("trace", monkeypatch)
    assert len(trace.RUN_PROBES) > len(trace.SETUP_PROBES) > 0
    for module_name, class_name, attribute, *_ in trace.RUN_PROBES:
        # Resolved the way Probes.install resolves them.
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attribute)), \
            (module_name, class_name, attribute)


def test_workloads_import(monkeypatch):
    workloads = load_record_module("workloads", monkeypatch)
    assert len(workloads.WORKLOADS) == 6
