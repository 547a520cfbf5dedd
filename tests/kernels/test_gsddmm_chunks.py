"""``gsddmm``'s ``dot`` walks the edges in cache-sized chunks; a row's
pairwise sum never crosses a chunk, so every edge count around a chunk
boundary must give the bytes of the one-pass expression
(``_operator_oracle.gsddmm_dot_reference``) — for both adjacency
layouts, equal and mixed operand dtypes — with the sanitizer, the call
count and the FLOP counter behaving as before.

That ``sum(axis=1)`` of a row block does not depend on how many rows the
block has is a property of the installed numpy: run this file after any
upgrade.
"""

import numpy as np
import pytest

from repro.errors import SanitizerError
from repro.kernels import KernelCOO, KernelCSR, gsddmm_forward, registry
from repro.perf import PERF

from ._call_spy import kernel_calls
from ._operator_oracle import gsddmm_dot_reference

ROWS, COLS = 37, 53


def chunk_edges(width, dtype):
    """Edges per chunk for operands of ``width`` columns whose product
    has ``dtype`` — the registry's own rule."""
    return registry.DOT_CHUNK_BYTES // (width * np.dtype(dtype).itemsize)


def edge_counts(chunk):
    return [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7]


def coo(nnz, rng):
    """Unsorted destinations drawn from half the rows (the rest stay
    empty), duplicates, and — GAT's layout — self-loops appended last
    (as many as fit in ``nnz``)."""
    loops = np.arange(min(ROWS, nnz // 2), dtype=np.int64)
    drawn = nnz - len(loops)
    edge_dst = np.concatenate([rng.integers(0, ROWS // 2, drawn), loops])
    edge_src = np.concatenate([rng.integers(0, COLS, drawn), loops])
    return KernelCOO(edge_dst, edge_src, (ROWS, COLS))


def csr(nnz, rng):
    """Rows of uneven length (some empty), duplicate columns, each
    row's columns unsorted."""
    degrees = rng.multinomial(nnz, rng.dirichlet(np.full(ROWS, 0.3)))
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    return KernelCSR(indptr, rng.integers(0, COLS, nnz),
                     rng.random(nnz), (ROWS, COLS))


@pytest.mark.parametrize("layout", [coo, csr])
@pytest.mark.parametrize("width", [128, 33])
@pytest.mark.parametrize("q_dtype, k_dtype", [
    (np.float32, np.float32), (np.float64, np.float64),
    (np.float32, np.float64), (np.float64, np.float32)])
def test_every_chunk_boundary_gives_the_one_pass_bytes(layout, width,
                                                       q_dtype, k_dtype):
    rng = np.random.default_rng(width)
    q = rng.standard_normal((ROWS, width)).astype(q_dtype)
    k = rng.standard_normal((COLS, width)).astype(k_dtype)
    promoted = np.result_type(q_dtype, k_dtype)
    for nnz in edge_counts(chunk_edges(width, promoted)):
        adj = layout(nnz, rng)
        assert adj.nnz == nnz
        before = PERF.snapshot()
        with kernel_calls() as calls:
            out = gsddmm_forward(adj, q, k, op="dot")
        delta = PERF.delta(before)
        expected = gsddmm_dot_reference(adj, q, k)
        assert out.dtype == expected.dtype == promoted
        assert out.shape == expected.shape == (nnz,)
        assert out.tobytes() == expected.tobytes()
        assert calls == {"gsddmm": 1}
        assert delta.get("kernel_flops", 0) == 2 * nnz * width


def test_one_column_operands_take_one_chunk():
    """1-D operands ride as one column: the chunk is then wider than
    any block's edge list, and the answer is still the one pass."""
    rng = np.random.default_rng(1)
    adj = coo(5000, rng)
    q = rng.standard_normal(ROWS).astype(np.float32)
    k = rng.standard_normal(COLS).astype(np.float32)
    assert chunk_edges(1, np.float32) > adj.nnz
    out = gsddmm_forward(adj, q, k, op="dot")
    expected = gsddmm_dot_reference(adj, q[:, None], k[:, None])
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_sanitizer_still_names_the_nan_operand(side):
    rng = np.random.default_rng(2)
    chunk = chunk_edges(128, np.float32)
    adj = coo(chunk + 1, rng)
    q = rng.standard_normal((ROWS, 128)).astype(np.float32)
    k = rng.standard_normal((COLS, 128)).astype(np.float32)
    (q if side == "lhs" else k)[3, 5] = np.nan
    with pytest.raises(SanitizerError, match=f"kernels.gsddmm {side}"):
        gsddmm_forward(adj, q, k, op="dot")
