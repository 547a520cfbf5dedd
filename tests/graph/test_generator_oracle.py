"""Differential test: the tabled graph generator against the
``rng.choice`` generator it replaced.

``_generator_oracle.py`` holds the old ``community_configuration_graph``
verbatim.  On generated inputs — singleton communities (the
``< 2`` members path), non-contiguous, sparse and negative community
ids, mixing ``0`` / ``0.5`` / ``1``, flat and power-law weights, edge
targets that need top-up rounds — the shipped generator must return the
same ``indptr`` and ``indices`` (dtype and bytes) and leave the
generator in the same state.  Needs numpy only.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.generators import (community_configuration_graph,
                                    flat_graph, power_law_graph)

from ._generator_oracle import \
    community_configuration_graph as oracle_graph


def _assert_same_graph(got, want):
    assert got.num_vertices == want.num_vertices
    assert got.is_symmetric == want.is_symmetric
    for name in ("indptr", "indices"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


def _communities(layout, n, count, rng):
    """Community ids for ``n`` vertices in one of the layouts a caller
    may hand over; every id array is a relabelling of ``0..count-1``
    blocks or a random draw, so singletons appear at high ``count``."""
    ids = (np.arange(n) * count) // n if layout != "random" \
        else rng.integers(0, count, n)
    if layout == "strided":
        return ids * 7 + 3              # non-contiguous
    if layout == "sparse":
        return ids * 10**12             # far apart, past any bincount
    if layout == "negative":
        return -5 * ids - 1             # negative, descending
    if layout == "shuffled":
        return rng.permutation(count)[ids]
    return ids


LAYOUTS = ("blocks", "random", "strided", "sparse", "negative", "shuffled")


@st.composite
def generator_cases(draw):
    n = draw(st.integers(2, 400))
    return dict(
        n=n,
        degree=draw(st.floats(0.2, 30.0)),
        communities=draw(st.one_of(st.integers(1, 6),
                                   st.integers(n // 2, n))),
        layout=draw(st.sampled_from(LAYOUTS)),
        mixing=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                              st.floats(0.0, 1.0))),
        power_law=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)))


def _run_both(n, m, communities, weights, mixing, seed):
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = community_configuration_graph(n, m, communities, weights, mixing,
                                        mine)
    want = oracle_graph(n, m, communities, weights, mixing, theirs)
    _assert_same_graph(got, want)
    assert mine.bit_generator.state == theirs.bit_generator.state


class TestGeneratorMatchesOracle:
    @given(case=generator_cases())
    @settings(max_examples=80, deadline=None)
    @example(case=dict(n=2, degree=1.0, communities=2, layout="blocks",
                       mixing=0.0, power_law=False, seed=0))
    @example(case=dict(n=300, degree=25.0, communities=300,
                       layout="negative", mixing=0.5, power_law=True,
                       seed=1))
    def test_generated_inputs(self, case):
        rng = np.random.default_rng(case["seed"] ^ 0x5EED)
        n = case["n"]
        communities = _communities(case["layout"], n, case["communities"],
                                   rng)
        weights = (generators.power_law_weights(n, 2.1, rng)
                   if case["power_law"] else 1.0 + 0.1 * rng.random(n))
        m = max(1, int(n * case["degree"] / 2))
        _run_both(n, m, communities, weights, case["mixing"], case["seed"])

    @pytest.mark.parametrize("mixing", [0.0, 0.5, 1.0])
    def test_dense_hubs_take_every_top_up_round(self, mixing):
        """A target near the complete graph on skewed weights: dedup
        keeps too few pairs, so the top-up rounds run out."""
        rng = np.random.default_rng(12)
        n = 60
        weights = generators.power_law_weights(n, 1.6, rng)
        communities = rng.integers(0, 3, n) * 11
        _run_both(n, n * (n - 1) // 2, communities, weights, mixing, seed=5)

    @pytest.mark.parametrize("make, kwargs", [
        (power_law_graph, dict(exponent=2.3, num_communities=47,
                               mixing=0.2)),
        (flat_graph, dict(num_communities=8, mixing=0.1)),
    ], ids=["power-law", "flat"])
    def test_wrappers_graph_communities_and_state(self, make, kwargs):
        mine, theirs = np.random.default_rng(21), np.random.default_rng(21)
        got, got_comm = make(2000, 20, mine, **kwargs)
        with mock.patch.object(generators, "community_configuration_graph",
                               oracle_graph):
            want, want_comm = make(2000, 20, theirs, **kwargs)
        _assert_same_graph(got, want)
        assert got_comm.tobytes() == want_comm.tobytes()
        assert mine.bit_generator.state == theirs.bit_generator.state
