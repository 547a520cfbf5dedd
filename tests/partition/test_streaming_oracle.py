"""Differential test: batched streaming against the per-vertex loops.

``_streaming_oracle.py`` holds the old ``l_hop_neighborhood`` and
Stream-B block stream verbatim.  On generated graphs (directed or not,
with isolated vertices and hubs past every cap) the shipped code must
return the same bytes *and* leave the generator in the same state, so
every capped hop drew what one ``choice`` per vertex drew.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import from_edges, split_vertices
from repro.partition import (StreamBPartitioner, StreamVPartitioner,
                             l_hop_neighborhood, streaming)

from . import _streaming_oracle as oracle

HOP_CAPS = (None, 1, 16, 250)


def _graph(case):
    """A random graph, then ``hubs`` vertices each joined to its own
    run of ``hub_degree`` others (shifted per hub, so no two hubs hold
    the same row) and ``isolated`` edgeless vertices."""
    rng = np.random.default_rng(case["seed"])
    core, hubs, degree = case["core"], case["hubs"], case["hub_degree"]
    n = max(core, 2 * hubs + degree if hubs else 0)
    m = case["edges_per_vertex"] * core
    src = [rng.integers(0, core, m)]
    dst = [rng.integers(0, core, m)]
    for hub in range(hubs):
        leaves = np.arange(hubs + hub, hubs + hub + degree)
        src.append(np.full(len(leaves), hub))
        dst.append(leaves)
    return from_edges(np.concatenate(src), np.concatenate(dst),
                      n + case["isolated"],
                      symmetrize_edges=not case["directed"])


@st.composite
def graph_cases(draw):
    return dict(seed=draw(st.integers(0, 2**32 - 1)),
                core=draw(st.integers(1, 60)),
                edges_per_vertex=draw(st.integers(0, 6)),
                hubs=draw(st.integers(0, 3)),
                hub_degree=draw(st.sampled_from([20, 300])),
                isolated=draw(st.integers(0, 3)),
                directed=draw(st.booleans()))


# Two hubs past 10 000 neighbors: a hop holding both draws two
# tail-shuffle samples of 250 in one call, in frontier order.
TAIL_HUBS = dict(seed=5, core=3, edges_per_vertex=1, hubs=2,
                 hub_degree=10_500, isolated=1, directed=False)


@given(case=graph_cases(), hops=st.integers(1, 3),
       hop_cap=st.sampled_from(HOP_CAPS), with_rng=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
@example(case=TAIL_HUBS, hops=2, hop_cap=250, with_rng=True, seed=0)
@example(case=dict(TAIL_HUBS, hub_degree=300), hops=3, hop_cap=16,
         with_rng=True, seed=1)
def test_l_hop_neighborhood_equals_the_vertex_loop(case, hops, hop_cap,
                                                    with_rng, seed):
    graph = _graph(case)
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    last = graph.num_vertices - 1  # isolated when the case has any
    for vertex in [*range(min(last, 30)), last]:
        got = l_hop_neighborhood(graph, vertex, hops, hop_cap,
                                 mine if with_rng else None)
        want = oracle.l_hop_neighborhood(graph, vertex, hops, hop_cap,
                                         theirs if with_rng else None)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state


def _split(graph, seed):
    return split_vertices(graph.num_vertices, np.random.default_rng(seed))


@given(case=graph_cases(), hops=st.integers(1, 3),
       hop_cap=st.sampled_from(HOP_CAPS), num_parts=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_stream_v_equals_the_vertex_loop(case, hops, hop_cap, num_parts,
                                         seed):
    graph = _graph(case)
    split = _split(graph, seed)
    num_parts = min(num_parts, graph.num_vertices)
    partitioner = StreamVPartitioner(hops=hops, hop_cap=hop_cap)
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = partitioner.partition(graph, num_parts, split, mine)
    with mock.patch.object(streaming, "l_hop_neighborhood",
                           oracle.l_hop_neighborhood):
        want = partitioner.partition(graph, num_parts, split, theirs)
    assert got.assignment.tobytes() == want.assignment.tobytes()
    assert got.replicas.tobytes() == want.replicas.tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state


@given(case=graph_cases(), num_parts=st.integers(1, 4),
       block_size=st.sampled_from([1, 3, 32]), balance_types=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stream_b_equals_the_per_vertex_scatter(case, num_parts, block_size,
                                                balance_types, seed):
    graph = _graph(case)
    split = _split(graph, seed)
    num_parts = min(num_parts, graph.num_vertices)
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = StreamBPartitioner(block_size, balance_types).partition(
        graph, num_parts, split, mine)
    want = oracle.stream_b_assignment(graph, num_parts, split, theirs,
                                      block_size, balance_types)
    assert got.assignment.tobytes() == want.tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state
