"""FM refinement over a conservative pulled set, held to the old loop.

``_refine`` scores a visit as python floats (best gain first, the lower
part id on a tie, the first candidate whose capacities all hold) and
visits only vertices its ``maybe`` list flags: exact at the start, a
move flags every neighbor outside the target part, a visit clears the
flag once no part beats its own.  The sanitizer checks after every pass
that ``maybe`` covers the exact pulled set.  These cases aim at each
rule: gains that tie across parts (k up to 8), constraint columns where
the best-gain part has no room, and neighbors in a third part that a
move pulls away.  Every comparison is against the pre-table loop in
``_metis_oracle.py`` — assignment and generator state — with the
sanitizer armed.  Matching is held to its oracle on weighted levels
whose rows tie below their heaviest weight.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SanitizerError
from repro.perf import perf_overrides
from repro.partition import metis
from repro.partition.metis import _Level, _heavy_edge_matching, _refine

from . import _metis_oracle as oracle

sp = pytest.importorskip("scipy.sparse")


def _symmetric(n, src, dst, weight=None):
    """A symmetric weighted CSR adjacency without self-loops, in
    canonical form (what ``_contract`` hands every coarse level)."""
    src, dst = np.asarray(src), np.asarray(dst)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    weight = np.ones(len(src)) if weight is None \
        else np.asarray(weight, dtype=np.float64)[keep]
    adj = sp.csr_matrix((np.concatenate([weight, weight]),
                         (np.concatenate([src, dst]),
                          np.concatenate([dst, src]))), shape=(n, n))
    adj.sum_duplicates()
    return adj


def _refine_both_ways(adj, weights, assignment, k, seed, imbalance=0.1,
                      passes=3, balance=True):
    """New ``_refine`` (sanitizer armed) and the oracle's from one start;
    returns the refined assignment.  ``balance=False`` stubs out both
    balance passes, so the result is FM's alone."""
    caps = metis._capacities(weights, k, imbalance)
    rng, oracle_rng = (np.random.default_rng(seed),
                       np.random.default_rng(seed))
    level = _Level(adj, weights, assignment.copy(), k)
    with perf_overrides(sanitize=True), contextlib.ExitStack() as stack:
        if not balance:
            for module in (metis, oracle):
                stack.enter_context(mock.patch.object(
                    module, "_balance_pass", lambda *a, **kw: None))
        _refine(level, caps, rng, passes)
        want = oracle._refine(adj, weights, assignment.copy(), k, caps,
                              oracle_rng, passes)
    np.testing.assert_array_equal(level.assignment, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return want


# ----------------------------------------------------------------------
# Generated levels
# ----------------------------------------------------------------------
@st.composite
def refine_cases(draw):
    """A sparse graph of small integer weights (so gains tie often),
    k in 2..8, a skewed starting assignment (so some parts sit at
    capacity) and zero to three constraint columns, some lumpy."""
    n = draw(st.integers(min_value=12, max_value=160))
    k = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    m = n * draw(st.integers(min_value=1, max_value=4))
    heavy = draw(st.booleans())
    adj = _symmetric(n, rng.integers(0, n, m), rng.integers(0, n, m),
                     rng.integers(1, 4, m) if heavy else None)
    skew = rng.random(k) ** draw(st.sampled_from([0.0, 1.0, 3.0]))
    assignment = rng.choice(k, size=n, p=skew / skew.sum())
    columns = [np.ones(n)]
    for _column in range(draw(st.integers(min_value=0, max_value=3))):
        lumpy = rng.random(n) < 0.15
        columns.append(np.where(lumpy, rng.integers(4, 12, n), 1.0)
                       * (rng.random(n) < 0.8))
    return dict(adj=adj, weights=np.column_stack(columns),
                assignment=assignment, k=k, seed=seed,
                imbalance=draw(st.sampled_from([0.0, 0.05, 0.1, 0.3])))


class TestGeneratedLevels:
    @given(refine_cases())
    @settings(max_examples=80, deadline=None)
    def test_refine_matches_oracle(self, case):
        _refine_both_ways(case["adj"], case["weights"], case["assignment"],
                          case["k"], case["seed"],
                          imbalance=case["imbalance"])

    @given(n=st.integers(min_value=4, max_value=120),
           degree=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matching_ties_below_the_heaviest_weight(self, n, degree,
                                                     seed):
        """Weights in {1, 2, 3}: once a row's heaviest neighbors are
        matched, its scan picks among lighter ties, and the first wins."""
        rng = np.random.default_rng(seed)
        m = n * degree
        adj = _symmetric(n, rng.integers(0, n, m), rng.integers(0, n, m),
                         rng.integers(1, 4, m))
        got_rng, want_rng = (np.random.default_rng(seed),
                             np.random.default_rng(seed))
        cmap, coarse = _heavy_edge_matching(adj, got_rng)
        want_cmap, want_coarse = oracle._heavy_edge_matching(adj, want_rng)
        np.testing.assert_array_equal(cmap, want_cmap)
        assert coarse == want_coarse
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ----------------------------------------------------------------------
# One rule at a time
# ----------------------------------------------------------------------
def _star(k, own, per_part):
    """Vertex 0 in part 0 with ``own`` neighbors in part 0 and
    ``per_part[p - 1]`` in each part p >= 1; every leaf is its own part's
    interior (a pendant of a hub that holds its part together)."""
    edges, parts = [], [0]
    for part, count in enumerate([own] + list(per_part)):
        hub = len(parts)
        parts.append(part)
        for leaf in range(len(parts), len(parts) + count):
            parts.append(part)
            edges += [(0, leaf)] + [(hub, leaf)] * 3  # tied to its hub
    src, dst = zip(*edges)
    return _symmetric(len(parts), src, dst), np.array(parts), len(parts)


def _third_part_case():
    """Vertex 0 (part 0): one own neighbor, three in part 1 and vertex 1.
    Vertex 1 (part 2): two neighbors in part 1, two in part 2 and vertex
    0.  Every other vertex is a leaf tied to its part's hub (10-12)."""
    parts = np.array([0, 2, 0, 1, 1, 1, 1, 1, 2, 2, 0, 1, 2])
    edges = [(0, 2), (0, 3), (0, 4), (0, 5), (0, 1),
             (1, 6), (1, 7), (1, 8), (1, 9)]
    for leaf in range(2, 10):
        edges += [(leaf, 10 + parts[leaf])] * 3
    src, dst = zip(*edges)
    return _symmetric(len(parts), src, dst), parts, len(parts)


class TestOneRuleAtATime:
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_tied_gains_go_to_the_lower_part(self, k):
        """Vertex 0 gains 2 towards every other part: it moves to part 1."""
        adj, parts, n = _star(k, 1, [3] * (k - 1))
        got = _refine_both_ways(adj, np.ones((n, 1)), parts, k, seed=0,
                                imbalance=1.0, passes=1, balance=False)
        assert got[0] == 1

    def test_best_part_full_moves_to_the_next_best(self):
        """Part 1 (gain 3) has no room for vertex 0's heavy constraint;
        part 2 (gain 2) has, and takes it."""
        adj, parts, n = _star(3, 1, [4, 3])
        weights = np.ones((n, 2))
        weights[0, 1] = 6.0
        weights[parts == 1, 1] = 3.0
        got = _refine_both_ways(adj, weights, parts, 3, seed=0,
                                imbalance=0.0, passes=1, balance=False)
        assert got[0] == 2

    def test_a_move_flags_neighbors_in_a_third_part(self):
        """Vertex 1 sits in part 2 tied 2-2 between parts 1 and 2; when
        vertex 0 moves from part 0 to part 1, part 1 pulls vertex 1."""
        adj, parts, n = _third_part_case()
        level = _Level(adj, np.ones((n, 1)), parts.copy(), 3)
        assert not level.pulled_away()[1]
        got = _refine_both_ways(adj, np.ones((n, 1)), parts, 3, seed=4,
                                imbalance=1.0, balance=False)
        assert got[0] == 1 and got[1] == 1


class TestSanitizer:
    def test_a_move_that_flags_nothing_raises(self):
        """A level whose moves report no neighbors leaves vertex 1 pulled
        but unflagged (the third-part case above): the pass-end check
        catches it."""
        adj, parts, n = _third_part_case()
        level = _Level(adj, np.ones((n, 1)), parts, 3)
        move = level.move
        level.move = lambda v, target: move(v, target)[:0]
        caps = metis._capacities(level.weights, 3, 1.0)
        with perf_overrides(sanitize=True), \
                pytest.raises(SanitizerError, match="flags lost a vertex"):
            _refine(level, caps, np.random.default_rng(4), 3)
