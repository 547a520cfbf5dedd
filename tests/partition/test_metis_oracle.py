"""Differential test: table-driven METIS against the loops it replaced.

``_metis_oracle.py`` holds the old ``_weighted_adjacency``,
``_contract``, ``_heavy_edge_matching``, ``_refine`` and
``_balance_pass`` verbatim.  On generated graphs the shipped
partitioner must return the same assignment *and* leave the generator
in the same state (so every ``permutation`` / ``choice`` was drawn at
the same point with the same arguments), and after every ``_refine``
the level's connectivity table and loads must equal ones rebuilt from
scratch.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import flat_graph, from_edges, power_law_graph
from repro.partition import metis
from repro.partition.metis import (_Level, _heavy_edge_matching, _refine,
                                   _weighted_adjacency, metis_partition)

from . import _metis_oracle as oracle

pytest.importorskip("scipy")


# ----------------------------------------------------------------------
# Running the pipeline on the old loops
# ----------------------------------------------------------------------
def _oracle_refine(level, caps, rng, passes):
    """The old ``_refine`` (which ends in the old ``_balance_pass``)
    behind the new call shape; it mutates ``level.assignment`` in
    place, which is all ``metis_partition`` reads back."""
    oracle._refine(level.adj, level.weights, level.assignment,
                   level.conn.shape[1], caps, rng, passes)


def _oracle_partition(graph, k, **kwargs):
    with mock.patch.object(metis, "_refine", _oracle_refine), \
            mock.patch.object(metis, "_heavy_edge_matching",
                              oracle._heavy_edge_matching), \
            mock.patch.object(metis, "_weighted_adjacency",
                              oracle._weighted_adjacency), \
            mock.patch.object(metis, "_contract", oracle._contract):
        return metis_partition(graph, k, **kwargs)


def _row_keys(adj):
    """Each stored entry's ``row * n + col``, in storage order."""
    n = adj.shape[0]
    return np.repeat(np.arange(n), np.diff(adj.indptr)) * n + adj.indices


def _assert_aggregates_fresh(level):
    """The patched table / running loads equal from-scratch rebuilds:
    bit for bit while the weights are integer-valued (the table always
    is), to rounding for fractional constraint weights."""
    n, k = level.conn.shape
    adj, table = level.adj, np.zeros((n, k))
    np.add.at(table, (np.repeat(np.arange(n), np.diff(adj.indptr)),
                      level.assignment[adj.indices]), adj.data)
    np.testing.assert_array_equal(level.conn, table)
    loads = np.zeros_like(level.loads)
    np.add.at(loads, level.assignment, level.weights)
    if np.array_equal(level.weights, np.rint(level.weights)):
        np.testing.assert_array_equal(level.loads, loads)
    else:
        np.testing.assert_allclose(level.loads, loads, rtol=1e-12,
                                   atol=1e-9)


def _checked_refine(level, caps, rng, passes):
    _refine(level, caps, rng, passes)
    _assert_aggregates_fresh(level)


def _checked_partition(graph, k, **kwargs):
    with mock.patch.object(metis, "_refine", _checked_refine):
        return metis_partition(graph, k, **kwargs)


def _assert_same_run(graph, k, seed, **kwargs):
    rng, oracle_rng = np.random.default_rng(seed), \
        np.random.default_rng(seed)
    got = _checked_partition(graph, k, rng=rng, **kwargs)
    want = _oracle_partition(graph, k, rng=oracle_rng, **kwargs)
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
def _disconnected_graph(n, degree, rng):
    """Two power-law components plus ``n // 8`` isolated vertices."""
    half = max(8, n // 2)
    (left, _), (right, _) = (power_law_graph(half, degree, rng)
                             for _side in range(2))
    src = np.concatenate([left.edges()[0], right.edges()[0] + half])
    dst = np.concatenate([left.edges()[1], right.edges()[1] + half])
    return from_edges(src, dst, 2 * half + n // 8, symmetrize_edges=True)


def _directed_graph(n, degree, rng):
    """Not symmetric: takes ``_weighted_adjacency``'s ``maximum`` path."""
    m = n * degree
    return from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n)


def _looped_multigraph(n, degree, rng):
    """Symmetric, every edge twice, a self-loop on every fifth vertex:
    rows hold their self-loop twice, so the old ``setdiag`` summed every
    duplicate before dropping the diagonal."""
    m = n * degree
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    loops = np.arange(0, n, 5)
    return from_edges(np.tile(np.concatenate([src, loops]), 2),
                      np.tile(np.concatenate([dst, loops]), 2), n,
                      symmetrize_edges=True, dedup=False,
                      drop_self_loops=False)


GRAPH_KINDS = {
    "power-law": lambda n, d, rng: power_law_graph(
        n, d, rng, num_communities=4)[0],
    "planted": lambda n, d, rng: flat_graph(
        n, d, rng, num_communities=4, mixing=0.1)[0],
    "disconnected": _disconnected_graph,
    "directed": _directed_graph,
    "looped-multigraph": _looped_multigraph,
}


def _constraints(n, columns, fractional, rng):
    """``columns`` constraint columns: a mask, degrees-like integers, an
    all-zero column (the ``avg <= 0`` skip), a sparse mask."""
    pool = [(rng.random(n) < 0.4).astype(np.float64),
            rng.integers(0, 9, n).astype(np.float64),
            np.zeros(n),
            (rng.random(n) < 0.1).astype(np.float64)]
    if fractional:
        pool[1] = pool[1] * rng.random(n)
    return np.column_stack(pool[:columns]) if columns else None


@st.composite
def partition_cases(draw):
    return dict(
        kind=draw(st.sampled_from(sorted(GRAPH_KINDS))),
        n=draw(st.integers(min_value=40, max_value=360)),
        degree=draw(st.integers(min_value=2, max_value=8)),
        k=draw(st.integers(min_value=2, max_value=8)),
        columns=draw(st.integers(min_value=0, max_value=4)),
        fractional=draw(st.booleans()),
        coarsen_to=draw(st.sampled_from([16, 48, None])),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)))


class TestPartitionMatchesOracle:
    @given(partition_cases())
    @settings(max_examples=60, deadline=None)
    def test_generated_graphs(self, case):
        rng = np.random.default_rng(case["seed"])
        graph = GRAPH_KINDS[case["kind"]](case["n"], case["degree"], rng)
        constraints = _constraints(graph.num_vertices, case["columns"],
                                   case["fractional"], rng)
        _assert_same_run(graph, case["k"], case["seed"],
                         constraints=constraints,
                         coarsen_to=case["coarsen_to"])

    def test_all_zero_constraint_column(self):
        graph, _ = power_law_graph(300, 6, np.random.default_rng(2),
                                   num_communities=3)
        constraints = np.column_stack([np.zeros(300), np.ones(300)])
        _assert_same_run(graph, 5, 7, constraints=constraints)

    def test_matching_alone(self):
        graph, _ = power_law_graph(500, 5, np.random.default_rng(4))
        adj = _weighted_adjacency(graph)
        rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        cmap, coarse = _heavy_edge_matching(adj, rng)
        want_cmap, want_coarse = oracle._heavy_edge_matching(adj,
                                                             oracle_rng)
        assert cmap.dtype == want_cmap.dtype
        np.testing.assert_array_equal(cmap, want_cmap)
        assert coarse == want_coarse
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


# ----------------------------------------------------------------------
# _refine on its own: starved parts and the multigraph hazard
# ----------------------------------------------------------------------
class _SpyRng:
    """The two draws ``_refine`` makes, counting the sampled ones."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.choices = 0

    def permutation(self, n):
        return self.rng.permutation(n)

    def choice(self, candidates, size, replace):
        self.choices += 1
        return self.rng.choice(candidates, size=size, replace=replace)


def _refine_both_ways(adj, weights, assignment, k, seed, passes=3):
    """Run new and old ``_refine`` from one starting assignment and
    check they agree; returns the refined level and how many times the
    balance pass sampled its candidates."""
    caps = metis._capacities(weights, k, 0.1)
    spy, oracle_rng = _SpyRng(seed), np.random.default_rng(seed)
    level = _Level(adj, weights, assignment.copy(), k)
    _checked_refine(level, caps, spy, passes)
    want = oracle._refine(adj, weights, assignment.copy(), k, caps,
                          oracle_rng, passes)
    np.testing.assert_array_equal(level.assignment, want)
    assert spy.rng.bit_generator.state == oracle_rng.bit_generator.state
    return level, spy.choices


class TestRefineMatchesOracle:
    @given(k=st.integers(min_value=2, max_value=8),
           columns=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    @example(k=8, columns=4, seed=7610)  # 400 vertices held < 257 there
    def test_starved_part_samples_candidates(self, k, columns, seed):
        """Part ``k - 1`` starts empty and the donors hold > 256
        candidates, so the balance pass draws its ``rng.choice``.

        FM never moves into the empty part, so the first column-0 step
        finds it needy.  The non-donor parts hold at most ``k - 2``
        averages, so the donors hold at least two: ``n / k > 128``
        makes that more than 256 candidates for every seed."""
        rng = np.random.default_rng(seed)
        n = 129 * k
        graph, _ = power_law_graph(n, 6, rng, num_communities=k)
        weights = np.hstack([np.ones((n, 1)),
                             _constraints(n, columns, False, rng)])
        level, sampled = _refine_both_ways(
            _weighted_adjacency(graph), weights,
            rng.integers(0, k - 1, n), k, seed)
        assert sampled, "the sampled-candidates branch never ran"
        assert np.bincount(level.assignment, minlength=k)[k - 1] > 0

    def test_multigraph_rows_with_repeated_columns(self):
        """A symmetric multigraph keeps its repeated column indices all
        the way into ``_refine``; the table patch must count each."""
        rng = np.random.default_rng(5)
        n = 120
        src = rng.integers(0, n, 500)
        dst = (src + rng.integers(1, n, 500)) % n  # no self loops
        src, dst = np.tile(src, 3), np.tile(dst, 3)  # every edge x3
        graph = from_edges(src, dst, n, symmetrize_edges=True, dedup=False)
        adj = _weighted_adjacency(graph)
        keys = _row_keys(adj)
        assert len(np.unique(keys)) < len(keys), "hazard not constructed"
        weights = np.ones((n, 1))
        for k in (2, 3, 6):
            _refine_both_ways(adj, weights, rng.integers(0, k, n), k,
                              seed=k)
            _assert_same_run(graph, k, seed=k, coarsen_to=16)


# ----------------------------------------------------------------------
# _contract on its own: packed-key coarsening vs the scipy round trip
# ----------------------------------------------------------------------
def _random_matching(n, rng):
    """``(cmap, num_coarse)`` of a random matching: a random number of
    disjoint pairs drawn from a shuffle, every other vertex single."""
    order = rng.permutation(n)
    pairs = int(rng.integers(0, n // 2 + 1))
    partner = np.arange(n)
    partner[order[0:2 * pairs:2]] = order[1:2 * pairs:2]
    partner[order[1:2 * pairs:2]] = order[0:2 * pairs:2]
    labels, cmap = np.unique(np.minimum(np.arange(n), partner),
                             return_inverse=True)
    return cmap.astype(np.int64), len(labels)


def _assert_same_contraction(adj, weights, cmap, num_coarse):
    got, got_w = metis._contract(adj, weights, cmap, num_coarse)
    want, want_w = oracle._contract(adj, weights, cmap, num_coarse)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype, name
        np.testing.assert_array_equal(mine, theirs, err_msg=name)
    np.testing.assert_array_equal(got_w, want_w)
    return want, want_w


class TestContractMatchesOracle:
    @given(kind=st.sampled_from(sorted(GRAPH_KINDS)),
           n=st.integers(min_value=2, max_value=300),
           degree=st.integers(min_value=1, max_value=8),
           heavy=st.booleans(),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_coarsening_chains(self, kind, n, degree, heavy, seed):
        """Contract level after level, by heavy-edge or random matchings,
        until one vertex is left or nothing merges."""
        rng = np.random.default_rng(seed)
        graph = GRAPH_KINDS[kind](n, degree, rng)
        adj = _weighted_adjacency(graph)
        weights = np.hstack([np.ones((adj.shape[0], 1)),
                             _constraints(adj.shape[0], 2, True, rng)])
        while adj.shape[0] > 1:
            cmap, num_coarse = (_heavy_edge_matching(adj, rng) if heavy
                                else _random_matching(adj.shape[0], rng))
            if num_coarse == adj.shape[0]:
                break
            adj, weights = _assert_same_contraction(adj, weights, cmap,
                                                    num_coarse)

    def test_multigraph_level_and_edgeless_results(self):
        """Repeated column indices at level 0 are summed; an all-internal
        contraction leaves an empty coarse level."""
        rng = np.random.default_rng(8)
        n = 90
        src = rng.integers(0, n, 400)
        dst = (src + rng.integers(1, n, 400)) % n
        graph = from_edges(np.tile(src, 2), np.tile(dst, 2), n,
                           symmetrize_edges=True, dedup=False)
        adj = _weighted_adjacency(graph)
        weights = np.ones((n, 1))
        _assert_same_contraction(adj, weights, *_random_matching(n, rng))
        _assert_same_contraction(adj, weights, np.zeros(n, dtype=np.int64),
                                 1)
        pair = from_edges([0], [1], 2, symmetrize_edges=True)
        _assert_same_contraction(_weighted_adjacency(pair), np.ones((2, 1)),
                                 np.zeros(2, dtype=np.int64), 1)


# ----------------------------------------------------------------------
# _weighted_adjacency on its own: a diagonal mask vs setdiag(0)
# ----------------------------------------------------------------------
def _assert_same_adjacency(graph):
    got = _weighted_adjacency(graph)
    want = oracle._weighted_adjacency(graph)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype, name
        np.testing.assert_array_equal(mine, theirs, err_msg=name)


@st.composite
def loopy_graphs(draw):
    """Graphs built every way ``from_edges`` allows: self-loops kept or
    dropped, multigraphs, directed, isolated vertices, ``n`` of 0 and 1;
    ids lean on ``0`` and ``n - 1`` so loops and duplicates are common."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(13, 300)))
    if n == 0:
        src = dst = np.zeros(0, dtype=np.int64)
    else:
        ids = st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1))
        pairs = draw(st.lists(st.tuples(ids, ids), max_size=200))
        src = np.array([a for a, _ in pairs], dtype=np.int64)
        dst = np.array([b for _, b in pairs], dtype=np.int64)
    return from_edges(src, dst, n, symmetrize_edges=draw(st.booleans()),
                      dedup=draw(st.booleans()),
                      drop_self_loops=draw(st.booleans()))


def _everything_with_loops(n, looped, directed=False):
    """Every off-diagonal pair once, plus self-loops on ``looped``."""
    src, dst = np.divmod(np.arange(n * n), n)
    off = src != dst
    src = np.concatenate([src[off], looped])
    dst = np.concatenate([dst[off], looped])
    return from_edges(src, dst, n, symmetrize_edges=not directed,
                      drop_self_loops=False)


class TestAdjacencyMatchesOracle:
    @given(graph=loopy_graphs())
    @settings(max_examples=150, deadline=None)
    @example(graph=from_edges([], [], 0))
    @example(graph=from_edges([], [], 1))
    @example(graph=from_edges([0], [0], 1, drop_self_loops=False))
    @example(graph=from_edges([0, 0, 1], [0, 0, 2], 4, symmetrize_edges=True,
                              dedup=False, drop_self_loops=False))
    def test_generated_graphs(self, graph):
        _assert_same_adjacency(graph)

    @pytest.mark.parametrize("looped, directed", [
        (np.arange(40), False),       # every diagonal present: in place
        (np.arange(39), False),       # one missing in 1.6 k: insert path
        (np.arange(39), True),        # the same through ``maximum``
        (np.arange(0, 40, 3), False),  # many missing: COO round trip
    ], ids=["all-present", "insert", "insert-directed", "coo"])
    def test_every_setdiag_path(self, looped, directed):
        """scipy's ``setdiag`` writes present diagonals in place, inserts
        missing ones below 0.1 % of nnz, and round-trips through COO
        above; a 40-vertex complete graph puts each case in reach."""
        _assert_same_adjacency(_everything_with_loops(40, looped, directed))

    def test_multigraph_rows_holding_their_loop_twice(self):
        graph = _looped_multigraph(200, 6, np.random.default_rng(6))
        adj = _weighted_adjacency(graph)
        assert (np.diff(_row_keys(adj)) > 0).all() \
            and adj.data.max() > 1, "duplicates were not summed"
        _assert_same_adjacency(graph)
