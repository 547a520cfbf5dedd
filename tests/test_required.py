"""The manifest check of ``tests/_required.py`` on synthetic inputs, and
the manifest ``tests/required.txt`` itself."""

from types import SimpleNamespace

import pytest

from ._required import (MANIFEST, RequiredTests, covers, manifest_problems,
                        read_manifest, selects_part)

FILE = "tests/a/test_x.py"
CLASS = "tests/a/test_x.py::TestK"
COLLECTED = [f"{CLASS}::test_one", f"{CLASS}::test_two[p0]",
             f"{CLASS}::test_two[p1]", f"{FILE}::test_free"]


def passing(collected=COLLECTED):
    return {nodeid: "passed" for nodeid in collected}


def test_every_entry_is_listed_once_with_a_reason():
    lines = [line for line in MANIFEST.read_text().splitlines()
             if line.partition("#")[0].strip()]
    entries = read_manifest()
    assert len(entries) == len(lines)
    assert all(entries.values()), [e for e, r in entries.items() if not r]


class TestCovers:
    def test_a_file_covers_its_tests(self):
        assert all(covers(FILE, nodeid) for nodeid in COLLECTED)

    def test_a_class_covers_its_methods_and_parametrizations(self):
        assert covers(CLASS, f"{CLASS}::test_one")
        assert covers(f"{CLASS}::test_two", f"{CLASS}::test_two[p1]")

    def test_a_prefix_stops_at_a_separator(self):
        assert not covers(CLASS, f"{CLASS}Two::test_one")
        assert not covers(f"{CLASS}::test_two", f"{CLASS}::test_twofold")
        assert not covers("tests/a/test_x", f"{FILE}::test_free")


class TestProblems:
    def test_all_passing_is_clean(self):
        entries = [FILE, CLASS, f"{CLASS}::test_two"]
        assert manifest_problems(entries, COLLECTED, passing()) == []

    def test_missing_file(self):
        assert manifest_problems(["tests/a/test_gone.py"], COLLECTED,
                                 passing()) \
            == ["tests/a/test_gone.py: not collected"]

    def test_renamed_node_id(self):
        renamed = [nodeid.replace("TestK", "TestKernel")
                   for nodeid in COLLECTED]
        assert manifest_problems([CLASS], renamed, passing(renamed)) \
            == [f"{CLASS}: not collected"]

    @pytest.mark.parametrize("outcome", ["skipped", "xfailed", "failed",
                                         "deselected"])
    def test_one_test_of_a_file(self, outcome):
        outcomes = passing()
        outcomes[f"{FILE}::test_free"] = outcome
        assert manifest_problems([FILE, CLASS], COLLECTED, outcomes) \
            == [f"{FILE}: {outcome}: {FILE}::test_free"]

    def test_not_run(self):
        outcomes = passing()
        del outcomes[f"{CLASS}::test_one"]
        assert manifest_problems([CLASS], COLLECTED, outcomes) \
            == [f"{CLASS}: not run: {CLASS}::test_one"]

    def test_a_class_deselected_whole(self):
        outcomes = dict(passing(), **{nodeid: "deselected"
                                      for nodeid in COLLECTED[:3]})
        assert manifest_problems([CLASS, f"{FILE}::test_free"], COLLECTED,
                                 outcomes) \
            == [f"{CLASS}: deselected: {CLASS}::test_one and 2 more"]

    def test_each_kind_is_its_own_line(self):
        outcomes = dict(passing(), **{COLLECTED[0]: "skipped",
                                      COLLECTED[1]: "xfailed"})
        del outcomes[COLLECTED[2]]
        assert manifest_problems([FILE], COLLECTED, outcomes) == [
            f"{FILE}: skipped: {COLLECTED[0]}",
            f"{FILE}: xfailed: {COLLECTED[1]}",
            f"{FILE}: not run: {COLLECTED[2]}",
        ]


def report(when, outcome, **extra):
    return SimpleNamespace(nodeid=FILE + "::t", when=when, outcome=outcome,
                           **extra)


@pytest.mark.parametrize("phases, expected", [
    ([("setup", "passed"), ("call", "passed"), ("teardown", "passed")],
     "passed"),
    ([("setup", "skipped"), ("teardown", "passed")], "skipped"),
    ([("setup", "passed"), ("call", "passed"), ("teardown", "failed")],
     "failed"),
    ([("setup", "passed")], None),
], ids=["passed", "skipped-in-setup", "failed-in-teardown", "no-call"])
def test_outcome_of_a_test_from_its_phases(phases, expected):
    plugin = RequiredTests()
    for when, outcome in phases:
        plugin.pytest_runtest_logreport(report(when, outcome))
    assert plugin.outcomes.get(FILE + "::t") == expected


def test_an_xfail_marker_is_xfailed_even_when_it_passes():
    plugin = RequiredTests()
    plugin.pytest_runtest_logreport(report("setup", "passed"))
    plugin.pytest_runtest_logreport(report("call", "passed", wasxfail=""))
    assert plugin.outcomes[FILE + "::t"] == "xfailed"


@pytest.mark.parametrize("args, part", [
    ([], False),
    (["-x", "-q"], False),
    (["-p", "no:cacheprovider", "-x"], False),
    (["tests/nn"], True),
    (["-x", "tests/nn/test_no_grad.py::test_a"], True),
    (["-k", "metis"], True),
    (["-qk", "metis"], True),
    (["-m", "slow"], True),
    (["--deselect", CLASS], True),
    (["--co"], True),
])
def test_what_the_command_line_selects(request, args, part):
    assert selects_part(request.config, args) is part
