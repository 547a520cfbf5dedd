"""GAT's attention as one ``repro.kernels.gat_attention`` node against
the eight-node composed chain it replaced (``_gat_oracle.py``): forward
values, the ``h_src`` / ``W`` / ``a_src`` / ``a_dst`` / ``bias``
gradients and the rng state must be the same **bytes** on generated
blocks — 1-3 heads, ``D == S``, destinations with no sampled in-edge, a
destination that sampled itself, single-edge blocks, both dtypes,
slopes 0 / 0.2 / 1.0 — with the reference oracle in the kernel seam
and on the shipped compiled path, taped and under ``no_grad``, with
four workers adding into one ``param.grad``.

That the destinations' scores are the leading rows of a gemv over all
``S`` rows, that ``einsum``'s outer product is the broadcast product up
to the sign of a zero and that ``out += t`` is ``out + t`` are
properties of the installed numpy / BLAS: run this file after any
upgrade of either.
"""

import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import KernelError, SanitizerError
from repro.kernels import block_attention_edges, gat_attention
from repro.nn import GATConv, Tensor, no_grad
from repro.perf import PERF, perf_overrides
from repro.sampling import build_block

from ..kernels._call_spy import kernel_calls
from ..kernels._reference_oracle import PATHS, kernel_path
from ._gat_oracle import composed_gat

UNIVERSE = 40
WORKERS = 4


def snapshot(*arrays):
    """Dtype, shape and bytes of each array."""
    return [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())
            for a in arrays]


def make_block(rng, num_dst, num_edges, sources, in_degree, self_sampled):
    """A sampled block.  ``sources="dst"`` draws every source from the
    destinations (``D == S``); ``in_degree="half"`` sends every edge to
    the first half of the destinations, so the rest only have their
    self-loop; ``self_sampled`` adds the edge ``(dst[0], dst[0])``,
    which the appended self-loop then repeats."""
    dst_nodes = rng.choice(UNIVERSE, size=num_dst, replace=False)
    targets = dst_nodes if in_degree == "all" \
        else dst_nodes[:max(1, num_dst // 2)]
    pool = dst_nodes if sources == "dst" else np.arange(UNIVERSE)
    edge_dst = rng.choice(targets, size=num_edges)
    edge_src = rng.choice(pool, size=num_edges)
    if self_sampled:
        edge_dst = np.append(edge_dst, dst_nodes[0])
        edge_src = np.append(edge_src, dst_nodes[0])
    return build_block(dst_nodes, edge_dst, edge_src)


def four_workers(heads, head_dim, d_in, shape, dtype, slope, seed, taped):
    """One layer, four workers' blocks, each backpropagating into the
    shared parameters with nothing zeroed in between."""
    rng = np.random.default_rng(seed)
    conv = GATConv(d_in, heads * head_dim, rng, heads=heads,
                   negative_slope=slope)
    for param in conv.parameters():
        param.data = rng.standard_normal(param.data.shape).astype(dtype)
    arrays = []
    for _worker in range(WORKERS):
        block = make_block(rng, *shape)
        h = Tensor(rng.standard_normal((block.num_src, d_in))
                   .astype(dtype), requires_grad=True)
        upstream = rng.standard_normal((block.num_dst, heads * head_dim))
        if taped:
            out = conv.forward_block(block, h)
            out.backward(upstream.astype(dtype))
            arrays += [out.data, h.grad]
        else:
            with no_grad():
                out = conv.forward_block(block, h)
            assert out._parents == () and out._backward is None
            arrays.append(out.data)
    if taped:
        arrays += [p.grad for p in conv.parameters()]
    return snapshot(*arrays), rng.bit_generator.state


SHAPES = st.tuples(st.sampled_from([1, 2, 5, 9]),          # num_dst
                   st.sampled_from([0, 1, 2, 30]),         # num_edges
                   st.sampled_from(["dst", "universe"]),   # sources
                   st.sampled_from(["all", "half"]),       # in_degree
                   st.booleans())                          # self_sampled


@settings(max_examples=50, deadline=None)
@given(heads=st.integers(1, 3), head_dim=st.sampled_from([1, 4, 16, 33]),
       d_in=st.sampled_from([3, 16]), shape=SHAPES,
       dtype=st.sampled_from([np.float32, np.float64]),
       slope=st.sampled_from([0.0, 0.2, 1.0]),
       seed=st.integers(0, 2 ** 16))
@example(heads=2, head_dim=16, d_in=16, shape=(9, 30, "dst", "all", False),
         dtype=np.float32, slope=0.2, seed=1)              # D == S
@example(heads=1, head_dim=33, d_in=16,
         shape=(9, 30, "universe", "half", False),
         dtype=np.float32, slope=0.2, seed=2)              # zero in-degree
@example(heads=3, head_dim=4, d_in=3, shape=(5, 0, "universe", "all", False),
         dtype=np.float64, slope=0.0, seed=3)              # only self-loops
@example(heads=2, head_dim=16, d_in=16,
         shape=(5, 30, "universe", "all", True),
         dtype=np.float32, slope=1.0, seed=4)              # sampled itself
@example(heads=1, head_dim=4, d_in=3, shape=(1, 1, "universe", "all", False),
         dtype=np.float64, slope=0.2, seed=5)              # single edge
@example(heads=3, head_dim=1, d_in=3, shape=(2, 1, "dst", "all", True),
         dtype=np.float32, slope=0.0, seed=6)
def test_fused_attention_is_the_composed_chain(heads, head_dim, d_in, shape,
                                               dtype, slope, seed):
    runs = {}
    for backend in PATHS:
        with kernel_path(backend):
            for taped in (True, False):
                args = (heads, head_dim, d_in, shape, dtype, slope, seed,
                        taped)
                shipped = four_workers(*args)
                with composed_gat():
                    oracle = four_workers(*args)
                assert shipped == oracle, (backend, taped)
                runs[backend, taped] = shipped
    # Both paths give the reference's bytes (the kernels' contract).
    for (_backend, taped), shipped in runs.items():
        assert shipped == runs["reference", taped]
    # The untaped forward is the taped one.
    taped_outs = runs["reference", True][0][0:2 * WORKERS:2]
    assert runs["reference", False][0] == taped_outs


@pytest.mark.parametrize("features, params",
                         [(np.float64, np.float32), (np.float32, np.float64)])
def test_mixed_precision_is_the_composed_chain(features, params):
    """Default float32 parameters under float64 features, and the
    reverse: every intermediate gradient is cast as the composed tape
    cast it on arrival."""
    def build():
        rng = np.random.default_rng(9)
        conv = GATConv(16, 32, rng, heads=2)
        for param in conv.parameters():
            param.data = param.data.astype(params)
        block = make_block(rng, 9, 30, "universe", "half", True)
        h = Tensor(rng.standard_normal((block.num_src, 16))
                   .astype(features), requires_grad=True)
        out = conv.forward_block(block, h)
        out.backward(rng.standard_normal(out.shape))
        return snapshot(out.data, h.grad,
                        *(p.grad for p in conv.parameters()))

    shipped = build()
    with composed_gat():
        assert shipped == build()


# ----------------------------------------------------------------------
# The tape it records, and the counters it bills
# ----------------------------------------------------------------------
def _layer(heads, rng):
    conv = GATConv(8, 4 * heads, rng, heads=heads)
    block = make_block(rng, 6, 20, "universe", "all", True)
    h = Tensor(rng.standard_normal((block.num_src, 8)).astype(np.float32),
               requires_grad=True)
    return conv, block, h


def _tape_nodes(root, leaf):
    """The backward closure names of every node between ``leaf`` and
    ``root`` (both excluded), counted."""
    names, seen, stack = collections.Counter(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or node is leaf or node._backward is None:
            continue
        seen.add(id(node))
        names[node._backward.__qualname__.split(".<locals>")[0]] += 1
        stack.extend(node._parents)
    return names


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_one_attention_node_per_head(heads):
    conv, block, h = _layer(heads, np.random.default_rng(heads))
    out = conv.forward_block(block, h)
    expected = {"Tensor.affine": heads, "gat_attention": heads,
                "Tensor.__add__": 1}
    if heads > 1:
        expected["Tensor.concat"] = heads - 1
    assert _tape_nodes(out, h) == expected


@pytest.mark.parametrize("heads", [1, 3])
def test_counters_are_the_composed_chains_less_the_forward_gsddmm(heads):
    def billed():
        conv, block, h = _layer(heads, np.random.default_rng(7))
        before = PERF.snapshot()
        with kernel_calls() as calls:
            out = conv.forward_block(block, h)
            out.backward(np.ones(out.shape, dtype=np.float32))
        return calls, PERF.delta(before)

    shipped_calls, shipped = billed()
    with composed_gat():
        oracle_calls, oracle = billed()
    # The per-edge add is billed in flops still, but is no dispatch.
    assert oracle_calls.pop("gsddmm") \
        == shipped_calls.pop("gsddmm") + heads
    assert shipped_calls == oracle_calls
    assert shipped == oracle
    assert shipped_calls["edge_softmax"] == heads
    assert shipped_calls["gspmm"] == 4 * heads


# ----------------------------------------------------------------------
# Arrays in, arrays out; contract errors
# ----------------------------------------------------------------------
def test_arrays_in_give_the_taped_forward():
    rng = np.random.default_rng(3)
    conv, block, h = _layer(1, rng)
    edges = block_attention_edges(block)
    transformed = h @ conv.weights[0]
    taped = gat_attention(edges, transformed, conv.attn_src[0],
                          conv.attn_dst[0], 0.2)
    plain = gat_attention(edges, transformed.data, conv.attn_src[0].data,
                          conv.attn_dst[0].data, 0.2)
    assert isinstance(plain, np.ndarray)
    assert plain.tobytes() == taped.data.tobytes()


def _operands(rng, width=4):
    """Three destinations, two more sources (rows 3 and 4)."""
    block = build_block(np.arange(3), [0, 1, 2, 2], [3, 4, 0, 2])
    return (block_attention_edges(block),
            rng.standard_normal((block.num_src, width)).astype(np.float32),
            rng.standard_normal((width, 1)).astype(np.float32),
            rng.standard_normal((width, 1)).astype(np.float32))


@pytest.mark.parametrize("broken", ["rows", "vector", "flat"])
def test_shape_contract(broken):
    edges, features, a_src, a_dst = _operands(np.random.default_rng(0))
    if broken == "rows":
        features = features[:4]
    elif broken == "vector":
        a_dst = np.ones((3, 1), dtype=np.float32)
    else:
        a_src = a_src[:, 0]
    with pytest.raises(KernelError, match="gat_attention needs"):
        gat_attention(edges, features, a_src, a_dst, 0.2)


@pytest.mark.parametrize("side", ["src", "dst"])
def test_sanitizer_names_the_nonfinite_scores(side):
    edges, features, a_src, a_dst = _operands(np.random.default_rng(1))
    # Row 4 is a source only; row 0 is a destination, checked first.
    features[4 if side == "src" else 0, 1] = np.nan
    with perf_overrides(sanitize=True):
        with pytest.raises(SanitizerError,
                           match=f"kernels.gat_attention {side} scores"):
            gat_attention(edges, features, a_src, a_dst, 0.2)
