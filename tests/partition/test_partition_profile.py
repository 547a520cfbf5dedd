"""``tools/partition_profile.py`` profiles METIS from outside: its
wrappers must leave the partition and the module exactly as they were."""

import argparse
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.partition import MetisPartitioner, metis

pytest.importorskip("scipy")

TOOL = Path(__file__).resolve().parents[2] / "tools" / "partition_profile.py"


@pytest.fixture(scope="module")
def profile():
    spec = importlib.util.spec_from_file_location("partition_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_run_is_the_plain_run(profile):
    data = load_dataset("ogb-arxiv", scale=0.3)
    args = argparse.Namespace(method="metis-vet", parts=4, seed=2)
    before = {name: getattr(metis, name) for name in dir(metis)}
    for counting in (False, True):
        got, times, counts, total = profile._profile_once(
            data.graph, data.split, args, counting)
        want = MetisPartitioner("vet").partition(
            data.graph, 4, split=data.split, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(got, want.assignment)
        assert {name: getattr(metis, name) for name in dir(metis)} == before
    finest = data.graph.num_vertices
    assert counts[finest]["slots"] % finest == 0 and counts[finest]["slots"]
    assert sum(c["moves"] for c in counts.values()) > 0
    assert all(c["visits"] <= c["slots"] for c in counts.values())
    assert set(times[finest]) <= set(profile.PHASES) and total > 0


def test_prints_one_row_per_level(profile, capsys):
    profile.main(["--dataset", "ogb-arxiv", "--scale", "0.3", "--repeat",
                  "1", "--method", "metis-v"])
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[:3] == ["level", "n", "adjacency"]
    assert out[-2].split()[0] == "total"
    assert out[-1].startswith("call ")
