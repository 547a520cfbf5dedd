"""Generated differential test for the one-sort block pipeline.

``draw_neighbors`` → ``build_block`` → ``normalized_block_adjacency`` /
``block_attention_edges`` → compiled kernel share one dst-major CSR that
is ordered exactly once, in ``build_block``.  Here hypothesis generates
the inputs that stress that hand-over — graphs with zero-degree, hub
and self-loop vertices and repeated edges, inner-layer frontiers in
``[dst, sorted extras]`` (not sorted) order, fanouts above and below
degree, duplicate-heavy draws and the empty edge set — and every stage
is held byte for byte to the sort-based code it replaced, kept verbatim
as oracles (``tests/sampling/_block_oracle.py``,
``tests/kernels/_operator_oracle.py``):

* every sampler family: block arrays and the ``rng`` bit-generator
  state after sampling equal the oracle's (compared at the block level:
  ``draw_neighbors``' own output is no longer ordered);
* the operators for ``self_loops`` in {True, False}: ``indptr`` /
  ``indices`` / ``data`` equal the oracle's and the historical scipy
  construction's;
* GAT's edge list and closed-form ``SegmentView`` equal a freshly
  sorted ``KernelCOO(...).segments()``;
* the kernel's direct ``csr_matvecs`` product equals
  the scipy product ``csr_matrix(operator) @ x`` written out here, and
  the reference oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.graph.build import from_edges
from repro.kernels import (block_attention_edges, full_graph_adjacency,
                           gspmm_forward, normalized_block_adjacency)
from repro.sampling import (HybridSampler, LayerWiseSampler,
                            NeighborSampler, RateSampler,
                            SubgraphSampler)

from ..sampling._block_oracle import slow_paths
from ._operator_oracle import (attention_edges_reference,
                               block_operator_reference,
                               full_graph_operator_reference)
from ._reference_oracle import reference_kernels
from .conftest import scipy_of
from .test_construction import _scipy_construction

SETTINGS = dict(max_examples=60, deadline=None)
BLOCK_FIELDS = ("dst_nodes", "src_nodes", "indptr", "indices")
CSR_FIELDS = ("indptr", "indices", "data")


def _same_arrays(actual, expected, fields):
    for name in fields:
        a, b = getattr(actual, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def graphs(draw):
    """A small directed graph with up to two isolated vertices, a hub
    every vertex points at, self-loops and repeated edges (each kept or
    dropped per draw) — or no edges at all."""
    n = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    count = draw(st.sampled_from([0, n, 4 * n]))
    connected = n - draw(st.integers(0, 2))
    src = rng.integers(0, connected, count)
    dst = rng.integers(0, connected, count)
    if count and draw(st.booleans()):
        src = np.concatenate([src, np.arange(connected), src[:3]])
        dst = np.concatenate([dst, np.zeros(connected, dtype=np.int64),
                              dst[:3]])
    return from_edges(src, dst, n, dedup=draw(st.booleans()),
                      drop_self_loops=draw(st.booleans()))


@st.composite
def sampled(draw):
    """``(graph, sampler, seeds, rng_seed)`` over every sampler family,
    two or three layers deep so inner frontiers are unsorted."""
    graph = draw(graphs())
    depth = draw(st.integers(1, 3))
    fanout = tuple(draw(st.sampled_from([1, 2, 5, 40]))
                   for _layer in range(depth))
    sampler = draw(st.sampled_from([
        NeighborSampler(fanout),
        RateSampler(draw(st.sampled_from([0.3, 1.0])), num_layers=depth),
        HybridSampler(fanout, rate=0.5, degree_threshold=3),
        LayerWiseSampler(draw(st.sampled_from([2, 64])), depth),
        SubgraphSampler(depth, walk_padding=draw(
            st.sampled_from([0.0, 1.0]))),
    ]))
    seeds = draw(st.lists(st.integers(0, graph.num_vertices - 1),
                          min_size=1, max_size=8))
    return graph, sampler, np.array(seeds), draw(st.integers(0, 2 ** 16))


@given(case=sampled())
@settings(**SETTINGS)
def test_pipeline_matches_the_sort_based_oracles(case):
    graph, sampler, seeds, rng_seed = case
    rng, slow_rng = (np.random.default_rng(rng_seed) for _ in range(2))
    subgraph = sampler.sample(graph, seeds, rng)
    with slow_paths():
        expected = sampler.sample(graph, seeds, slow_rng)
    assert rng.bit_generator.state == slow_rng.bit_generator.state
    assert len(subgraph.blocks) == len(expected.blocks)
    subgraph.validate()

    for block, want in zip(subgraph.blocks, expected.blocks):
        _same_arrays(block, want, BLOCK_FIELDS)

        for self_loops in (True, False):
            operator = normalized_block_adjacency(block, self_loops)
            _same_arrays(operator,
                         block_operator_reference(block, self_loops),
                         CSR_FIELDS)
            theirs = _scipy_construction(block, self_loops)
            for name in CSR_FIELDS:
                dtype = getattr(operator, name).dtype
                assert getattr(operator, name).tobytes() == \
                    getattr(theirs, name).astype(dtype).tobytes()

        edges = block_attention_edges(block)
        fresh = attention_edges_reference(block)
        assert np.array_equal(edges.edge_dst, fresh.edge_dst)
        assert np.array_equal(edges.edge_src, fresh.edge_src)
        view, sorted_view = edges.segments(), fresh.segments()
        assert np.array_equal(view.order, sorted_view.order)
        assert view.operator.shape == sorted_view.operator.shape
        assert view.selection.shape == sorted_view.selection.shape
        _same_arrays(view.operator, sorted_view.operator, CSR_FIELDS)
        _same_arrays(view.selection, sorted_view.selection, CSR_FIELDS)


@given(graph=graphs(), self_loops=st.booleans())
@settings(**SETTINGS)
def test_full_graph_operator_matches_the_oracle(graph, self_loops):
    """The raw-multigraph front end (canonicalising sort, duplicates
    summed) feeds the same tail the block operator uses."""
    _same_arrays(full_graph_adjacency(graph, self_loops),
                 full_graph_operator_reference(graph, self_loops),
                 CSR_FIELDS)


@given(case=sampled(), self_loops=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]),
       dim=st.sampled_from([None, 1, 3]),
       values_dtype=st.sampled_from([None, np.float32, np.float64]))
@settings(**SETTINGS)
def test_direct_matvecs_equals_the_scipy_product(case, self_loops, dtype,
                                                 dim, values_dtype):
    """``csr_matvecs`` on the operator's own arrays against the
    ``csr_matrix @ x`` it replaced (dtype promotion included) and
    against the reference scatter; values wider than the features are
    a typed error."""
    graph, sampler, seeds, rng_seed = case
    rng = np.random.default_rng(rng_seed)
    block = sampler.sample(graph, seeds, rng).blocks[0]
    operator = normalized_block_adjacency(block, self_loops)
    shape = (block.num_src,) if dim is None else (block.num_src, dim)
    x = rng.standard_normal(shape).astype(dtype)
    values = None if values_dtype is None else \
        rng.standard_normal(operator.nnz).astype(values_dtype)

    if values is not None and not np.can_cast(values_dtype, dtype):
        with pytest.raises(KernelError, match="wider than"):
            gspmm_forward(operator, x, values=values)
        return
    out = gspmm_forward(operator, x, values=values)
    with reference_kernels():
        reference = gspmm_forward(operator, x, values=values)
    assert out.dtype == reference.dtype
    assert out.tobytes() == reference.tobytes()
    matrix = scipy_of(operator)
    if values is not None:
        matrix.data = values
    product = matrix @ x
    assert out.dtype == product.dtype
    assert out.tobytes() == product.tobytes()
