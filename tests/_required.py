"""The tier-1 run's manifest check over ``tests/required.txt``.

The manifest names the tests that hold a refactor to the code it
replaced (oracles, goldens, pinned budgets and error contracts).  Losing
one without notice, by a rename, a deletion, a skip marker or a
deselection in configuration, would let the next change pass unchecked,
so the tier-1 run (``PYTHONPATH=src python -m pytest -x -q``) enforces
the list: a session that would otherwise pass fails, naming every entry
that was not collected, was deselected, skipped or xfailed, or did not
run.  A file entry needs at least one collected test and every test in
it to pass; a node id covers the tests it prefixes (a class its methods,
a function its parametrizations).

The check is on exactly when the command line selects nothing: no
path, ``-k``, ``-m``, ``--deselect``, ``--lf`` or ``--sw``, and no
``--collect-only``.  Selection set in configuration (``addopts``,
``collect_ignore``, markers) is what it exists to catch, so it does not
count.  ``pytest tests/nn`` and the like are untouched.
"""

from pathlib import Path

import pytest

MANIFEST = Path(__file__).with_name("required.txt")

#: Parsed command-line options that make a run cover part of the suite.
_PARTIAL = ("file_or_dir", "keyword", "markexpr", "deselect", "lf",
            "stepwise", "stepwise_skip", "collectonly")


def read_manifest(path=MANIFEST):
    """``{entry: reason}`` in file order.  ``#`` starts the reason; a
    line that is only a comment or blank holds no entry."""
    entries = {}
    for line in path.read_text().splitlines():
        entry, _, reason = line.partition("#")
        if entry.strip():
            entries[entry.strip()] = reason.strip()
    return entries


def covers(entry, nodeid):
    """Whether manifest ``entry`` (a file or a node id) covers test
    ``nodeid``: itself, or an id it prefixes up to ``::`` or ``[``."""
    return nodeid == entry or nodeid.startswith((entry + "::", entry + "["))


def manifest_problems(entries, collected, outcomes):
    """One line per entry and kind of problem, empty when all is well.

    ``collected`` holds every collected test id, deselected ones
    included; ``outcomes`` maps a test id to ``"passed"``,
    ``"failed"``, ``"skipped"``, ``"xfailed"`` or ``"deselected"``, and
    a collected id it lacks did not run.
    """
    problems = []
    for entry in entries:
        tests = [nodeid for nodeid in collected if covers(entry, nodeid)]
        if not tests:
            problems.append(f"{entry}: not collected")
        failing = {}
        for nodeid in tests:
            outcome = outcomes.get(nodeid, "not run")
            if outcome != "passed":
                failing.setdefault(outcome, []).append(nodeid)
        for outcome, ids in failing.items():
            more = f" and {len(ids) - 1} more" if len(ids) > 1 else ""
            problems.append(f"{entry}: {outcome}: {ids[0]}{more}")
    return problems


def selects_part(config, args):
    """Whether command-line ``args`` make the run cover part of the
    suite, read with pytest's own parser."""
    namespace = config._parser.parse_known_args(list(args))
    return any(getattr(namespace, name, None) for name in _PARTIAL)


class RequiredTests:
    """The plugin: records collection and outcomes, checks at the end."""

    def __init__(self):
        self.collected = []
        self.outcomes = {}

    def pytest_deselected(self, items):
        for item in items:
            self.collected.append(item.nodeid)
            self.outcomes[item.nodeid] = "deselected"

    def pytest_collection_finish(self, session):
        self.collected += [item.nodeid for item in session.items]

    def pytest_runtest_logreport(self, report):
        """A test's first non-passing phase sticks; it passed if its
        call did and nothing else failed."""
        outcome = "xfailed" if hasattr(report, "wasxfail") \
            else report.outcome
        if (outcome != "passed" or report.when == "call") \
                and self.outcomes.get(report.nodeid, "passed") == "passed":
            self.outcomes[report.nodeid] = outcome

    def pytest_sessionfinish(self, session, exitstatus):
        if exitstatus != pytest.ExitCode.OK:
            return
        problems = manifest_problems(read_manifest(), self.collected,
                                     self.outcomes)
        if not problems:
            return
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        reporter = session.config.pluginmanager.get_plugin(
            "terminalreporter")
        if reporter is not None:
            reporter.write_line("")
            reporter.write_sep("=", f"tests/{MANIFEST.name}: listed tests "
                               f"that did not pass", red=True)
            for line in problems:
                reporter.write_line(line)


def register(config):
    """Arm the check unless the command line selects part of the suite."""
    if not selects_part(config, config.invocation_params.args):
        config.pluginmanager.register(RequiredTests(), "required-tests")
