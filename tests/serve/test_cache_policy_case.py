"""A cache policy's name is case-insensitive everywhere it is read.

``make_tiered_cache`` lowercases the policy, and so must the backing
store rule (``backing_for``): ``"LFU"`` once built an LFU cache over a
*host* store while ``"lfu"`` built it over a *disk* store, so the two
spellings billed the same lookups differently.
"""

import numpy as np
import pytest

from repro import load_dataset
from repro.fleet import FleetEngine
from repro.nn import build_model
from repro.serve import LoadGenerator, ServeEngine
from repro.transfer import backing_for


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.3)


@pytest.fixture(scope="module")
def model(data):
    return build_model("graphsage", data.feature_dim, data.num_classes,
                       rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def trace(data):
    return LoadGenerator(data.test_ids, rate=2000.0, num_requests=300,
                         seed=0, skew=0.8).generate()


def test_backing_rule_ignores_case():
    for spelling in ("lfu", "LFU", "Lfu"):
        assert backing_for(spelling, 0.0) == "disk"
    for spelling in ("lru", "LRU", "Degree"):
        assert backing_for(spelling, 0.0) == "host"


def _engines(data, model, policy):
    return {
        "serve": ServeEngine(data, model, mode="sampled", fanout=(5, 5),
                             cache_policy=policy, cache_ratio=0.1,
                             seed=0),
        "fleet": FleetEngine(data, model, partition="hash",
                             num_replicas=2, mode="sampled",
                             fanout=(5, 5), cache_policy=policy,
                             cache_ratio=0.1, seed=0),
    }


def test_upper_case_policy_bills_like_lower_case(data, model, trace):
    lower = _engines(data, model, "lfu")
    upper = _engines(data, model, "LFU")
    for name in lower:
        expected = lower[name].run(trace).to_dict()
        got = upper[name].run(trace).to_dict()
        # The report echoes the policy as given; everything it measured
        # must agree.
        assert (got.pop("cache_policy"), expected.pop("cache_policy")) \
            == ("LFU", "lfu")
        assert got == expected, name
        assert expected["dt_seconds"] > 0.0
