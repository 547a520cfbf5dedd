"""``tools/reach.py``: every public def is reached from an entrypoint or
allowlisted, and the scan counts what registration, visitors and
string-named targets reach."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def reach():
    sys.path.insert(0, str(TOOLS))      # reach.py imports count_lines
    try:
        spec = importlib.util.spec_from_file_location(
            "reach", TOOLS / "reach.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


@pytest.fixture(scope="module")
def unreached(reach):
    """The real tree's unreached public defs, scanned once."""
    return reach.Reach(reach.ROOT / "src" / "repro",
                       reach.root_files()).unreached()


def write_allowlist(path, entries):
    path.write_text("".join(f"{key}  {reason}\n"
                            for key, reason in entries.items()))
    return path


def test_the_tree_passes_with_the_checked_in_allowlist(reach, unreached):
    assert reach.check(unreached, reach.read_allowlist()) == []


def test_a_stale_allowlist_entry_fails(reach, unreached, tmp_path):
    entries = {**reach.read_allowlist(),
               "repro.cli.main": "door: the command line"}
    allowed = reach.read_allowlist(write_allowlist(tmp_path / "allow.txt",
                                                   entries))
    assert reach.check(unreached, allowed) == [
        "stale allowlist entry (reached or gone): repro.cli.main"]


def test_an_unlisted_unreached_def_fails(reach, unreached, tmp_path):
    entries = reach.read_allowlist()
    dropped = sorted(entries)[0]
    del entries[dropped]
    allowed = reach.read_allowlist(write_allowlist(tmp_path / "allow.txt",
                                                   entries))
    assert reach.check(unreached, allowed) == [
        f"unreached and not allowlisted: {dropped}"]


def test_the_allowlist_takes_three_reasons_and_fifteen_entries(
        reach, tmp_path):
    with pytest.raises(ValueError, match="reason must start with"):
        reach.read_allowlist(write_allowlist(
            tmp_path / "reason.txt", {"pkg.f": "handy: might need it"}))
    with pytest.raises(ValueError, match="at most 15"):
        reach.read_allowlist(write_allowlist(
            tmp_path / "many.txt",
            {f"pkg.f{i}": "oracle: x" for i in range(16)}))


FIXTURE = {
    "pkg/__init__.py": "",
    "pkg/registry.py": '''
RULES = []


def register(cls):
    RULES.append(cls)
    return cls


def run_all():
    return [rule().check() for rule in RULES]
''',
    "pkg/rules.py": '''
import ast

from .registry import register


@register
class Registered:
    def check(self):
        return helper()


def helper():
    return 1


class Walker(ast.NodeVisitor):
    def visit_Name(self, node):
        return node

    def unused(self):
        return None


class Base(ast.NodeVisitor):
    pass


class Derived(Base):
    def visit_Call(self, node):
        return node
''',
    "pkg/plugins.py": '''
import numpy as np


def by_string():
    return 1


def tanh(x):
    return np.tanh(x)


def sweep():
    return 2


def dead():
    return by_string()


class Dead:
    def method(self):
        return 3
''',
    "tools/run.py": '''
import numpy as np

from pkg.registry import run_all
from pkg.rules import Derived, Walker

TARGET = "by_string"


def main():
    sweep = {}
    Walker().visit(None)
    Derived()
    return np.tanh(0.5), sweep, run_all()
''',
}


def test_registration_visitors_and_strings_count_as_reached(reach,
                                                            tmp_path):
    for name, source in FIXTURE.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source.lstrip("\n"))
    scan = reach.Reach(tmp_path / "pkg", [tmp_path / "tools" / "run.py"],
                       root_modules=())
    found = scan.unreached()
    # ``np.tanh`` is numpy's and ``sweep`` a local: neither reaches the
    # package's defs of that name.  A dead def references nothing.
    assert set(found) == {"pkg.plugins.tanh", "pkg.plugins.sweep",
                          "pkg.plugins.dead", "pkg.plugins.Dead",
                          "pkg.rules.Walker.unused"}
    assert found["pkg.plugins.dead"] == 2
    assert {"pkg.rules.Registered", "pkg.rules.Registered.check",
            "pkg.rules.helper", "pkg.rules.Walker.visit_Name",
            "pkg.rules.Derived.visit_Call",
            "pkg.plugins.by_string"} <= scan.reached
