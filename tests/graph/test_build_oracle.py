"""Differential test: packed-key graph construction against the lexsort
construction it replaced.

``_build_oracle.py`` holds the old ``from_edges`` verbatim.  On
generated edge lists — duplicates, self-loops, empty input, ``n = 1``,
ids at ``n - 1``, shifts from 1 to 20 bits — and every combination of
``symmetrize_edges`` / ``dedup`` / ``drop_self_loops``, the shipped
builder must return the same ``indptr`` and ``indices``, dtype and
bytes.  Needs numpy only.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import from_edges

from ._build_oracle import from_edges_reference


def _assert_same_graph(got, want):
    assert got.num_vertices == want.num_vertices
    assert got.is_symmetric == want.is_symmetric
    for name in ("indptr", "indices"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype, name
        np.testing.assert_array_equal(mine, theirs, err_msg=name)


@st.composite
def edge_lists(draw):
    """``(src, dst, n)``: mostly tiny ``n`` (duplicates and self-loops
    are then common), sometimes up to ``2**20``; ids lean on ``0`` and
    ``n - 1``."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(13, 1 << 20)))
    if n == 0:
        return [], [], 0
    ids = st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=80))
    src = np.array([s for s, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    return src, dst, n


BUILD_FLAGS = dict(symmetrize_edges=st.booleans(), dedup=st.booleans(),
                   drop_self_loops=st.booleans())


class TestFromEdgesMatchesOracle:
    @given(edges=edge_lists(), **BUILD_FLAGS)
    @settings(max_examples=120, deadline=None)
    @example(edges=([], [], 0), symmetrize_edges=False, dedup=True,
             drop_self_loops=True)
    @example(edges=([0, 0], [0, 0], 1), symmetrize_edges=True, dedup=False,
             drop_self_loops=False)
    @example(edges=([4, 4, 0, 4], [4, 0, 4, 0], 5), symmetrize_edges=True,
             dedup=True, drop_self_loops=False)
    def test_generated_edge_lists(self, edges, symmetrize_edges, dedup,
                                  drop_self_loops):
        src, dst, n = edges
        flags = dict(symmetrize_edges=symmetrize_edges, dedup=dedup,
                     drop_self_loops=drop_self_loops)
        _assert_same_graph(from_edges(src, dst, n, **flags),
                           from_edges_reference(src, dst, n, **flags))

    def test_generator_scale_multigraph(self):
        """A generator-sized, Zipf-skewed draw: heavy duplication and
        many self-loops, under three flag combinations."""
        rng = np.random.default_rng(11)
        n = 3000
        src = np.minimum(rng.zipf(1.6, 60_000) - 1, n - 1)
        dst = rng.integers(0, n, 60_000)
        for flags in ({"symmetrize_edges": True}, {"dedup": False},
                      {"drop_self_loops": False, "dedup": False}):
            _assert_same_graph(from_edges(src, dst, n, **flags),
                               from_edges_reference(src, dst, n, **flags))
