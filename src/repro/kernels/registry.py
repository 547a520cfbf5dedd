"""Backend registry and forward-dispatch for the sparse kernels.

One seam for every aggregation in the library.  A backend is an object
with ``name``, ``available()``, ``supports(kind)`` and the kernel
methods (each taking either adjacency layout); :func:`register_backend`
adds it, and dispatch resolves the active one from
``FLAGS.kernel_backend``:

* ``"auto"`` (default) — the first available backend in priority order
  (accelerated backends first, reference last);
* a backend name — that backend, raising :class:`KernelError` if it is
  not importable (an explicit request must not silently degrade);
* per-call ``backend=`` overrides the flag for one dispatch.

A resolved backend that does not support the requested kernel — or is
handed edge values wider than the features (float64 on float32), whose
mixed-precision accumulation only ``np.add.at`` reproduces — falls back
to the reference.  The reference defines the semantics, so fallback
changes speed, never bits, and it is counted (``kernel_fallbacks``) so
benchmarks and tests can see exactly what ran.  Per-backend call and
FLOP counters flow through :data:`repro.perf.PERF`.

Only the order-sensitive kernels are backend capabilities.  ``gsddmm``
is a per-edge gather with no accumulation order, so one shared
implementation lives here and never counts as a fallback.

``reduce`` is layered here rather than per-backend: every backend
implements the sum reduction, ``mean`` divides the shared sum by the
stored row degrees, and ``max`` always runs the reference extremum
scan (a ``kernel_fallbacks`` detour like any other whenever a
non-reference backend was resolved).  One normalization code path
means backends cannot drift apart on the reductions.
"""

from __future__ import annotations

import numpy as np

from ..analysis.sanitize import check_csr, check_finite
from ..errors import KernelError
from ..perf import FLAGS, PERF
from .adjacency import KernelCOO, as_adjacency
from .reference import ReferenceBackend
from .scipy_backend import ScipyBackend

__all__ = ["register_backend", "available_backends", "resolve_backend",
           "gspmm_forward", "gsddmm_forward", "edge_softmax_forward",
           "GSPMM_OPS", "GSDDMM_OPS", "REDUCES"]

#: Bytes of one gathered operand per pass of ``gsddmm``'s ``dot``, so
#: both ``(chunk, d)`` temporaries are still in cache for the product
#: and the row sum.  Bits do not depend on it; 128-256 KiB measured best.
DOT_CHUNK_BYTES = 1 << 18

GSPMM_OPS = ("mul", "copy_rhs")
GSDDMM_OPS = ("add", "mul", "dot")
REDUCES = ("sum", "mean", "max")

#: name -> backend instance, insertion-ordered.
_BACKENDS = {}
#: "auto" resolution order: accelerated first, reference as the floor.
_PRIORITY = []
#: kernel kind or backend name -> its ``kernel_*_calls`` counter, named
#: once rather than formatted per dispatch.
_CALL_COUNTERS = {kind: f"kernel_{kind}_calls"
                  for kind in ("gspmm", "edge_softmax")}


def register_backend(backend, accelerated=True):
    """Add ``backend`` to the registry.

    ``accelerated`` backends are preferred by ``"auto"`` resolution (in
    registration order); the reference stays the fallback floor.
    """
    name = backend.name
    _BACKENDS[name] = backend
    _CALL_COUNTERS[name] = f"kernel_{name}_calls"
    if name in _PRIORITY:
        _PRIORITY.remove(name)
    if accelerated:
        _PRIORITY.insert(0, name)
    else:
        _PRIORITY.append(name)
    return backend


_REFERENCE = register_backend(ReferenceBackend(), accelerated=False)
register_backend(ScipyBackend())


def available_backends():
    """Names of the backends importable in this environment."""
    return [name for name, backend in _BACKENDS.items()
            if backend.available()]


def resolve_backend(backend=None):
    """The backend instance a dispatch will use (before op fallback)."""
    name = backend if backend is not None else FLAGS.kernel_backend
    if name == "auto":
        for candidate in _PRIORITY:
            if _BACKENDS[candidate].available():
                return _BACKENDS[candidate]
        return _REFERENCE  # pragma: no cover - reference is always there
    chosen = _BACKENDS.get(name)
    if chosen is None:
        raise KernelError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(_BACKENDS)}")
    if not chosen.available():
        raise KernelError(
            f"kernel backend {name!r} was requested but is not "
            f"importable here")
    return chosen


def _pick(kind, backend, lowerable=True):
    """Resolve, apply capability fallback, count the call.
    ``lowerable=False`` marks a dispatch only the reference can run."""
    chosen = resolve_backend(backend)
    if chosen is not _REFERENCE \
            and not (lowerable and chosen.supports(kind)):
        PERF.count("kernel_fallbacks")
        chosen = _REFERENCE
    PERF.count(_CALL_COUNTERS[kind])
    PERF.count(_CALL_COUNTERS[chosen.name])
    return chosen


def _as_matrix(x):
    """Features as a 2-D array (1-D inputs ride as one column)."""
    x = np.asarray(x)
    if x.ndim == 1:
        return x[:, None], True
    if x.ndim != 2:
        raise KernelError(f"expected 1-D or 2-D operand, got {x.ndim}-D")
    return x, False


def _sanitize_adj(adj, name):
    if hasattr(adj, "indptr"):
        check_csr(adj.indptr, adj.indices, adj.shape[0], name=name,
                  sorted_rows=False, num_cols=adj.shape[1])
        check_finite(adj.data, name=f"{name} values")


def gspmm_forward(adj, x, values=None, op="mul", reduce="sum",
                  backend=None):
    """Generalized SpMM: ``y[i] = reduce over edges (i, j) of
    values[e] (*) x[j]`` over the adjacency's stored edges.

    ``adj`` may be a :class:`~repro.kernels.adjacency.KernelCSR`, a
    :class:`~repro.kernels.adjacency.KernelCOO` (``values`` required
    for ``op='mul'`` unless stored), or a scipy CSR matrix.  Arrays in,
    arrays out; the autograd boundary lives in
    :mod:`repro.kernels.autograd`.
    """
    if op not in GSPMM_OPS:
        raise KernelError(
            f"unknown gspmm op {op!r}; known: {', '.join(GSPMM_OPS)}")
    if reduce not in REDUCES:
        raise KernelError(
            f"unknown gspmm reduce {reduce!r}; known: "
            f"{', '.join(REDUCES)}")
    adj = as_adjacency(adj)
    x, squeeze = _as_matrix(x)
    if x.shape[0] != adj.shape[1]:
        raise KernelError(
            f"gspmm operand has {x.shape[0]} rows but the adjacency "
            f"has {adj.shape[1]} columns")
    if FLAGS.sanitize:
        _sanitize_adj(adj, "kernels.gspmm")
        check_finite(x, name="kernels.gspmm operand")
        if values is not None:
            check_finite(values, name="kernels.gspmm edge values")

    if op == "mul" and values is None and isinstance(adj, KernelCOO):
        raise KernelError("gspmm op='mul' needs edge values")
    if values is not None and len(values) != adj.nnz:
        # Compiled kernels walk the value array unchecked.
        raise KernelError(
            f"gspmm got {len(values)} edge values for {adj.nnz} "
            f"stored edges")
    if reduce == "max":
        # The extremum scan (and its argmax map) is reference-only.
        chosen = _pick("gspmm", backend, lowerable=False)
        out, _argmax = chosen.gspmm_max(adj, x, values, op)
    else:
        # Values wider than the features make the reference accumulate
        # wide products into a narrow output; no compiled product does.
        same_precision = values is None or np.can_cast(
            np.asarray(values).dtype, x.dtype)
        chosen = _pick("gspmm", backend, lowerable=same_precision)
        out = chosen.gspmm(adj, x, values, op)
        if reduce == "mean":
            out = out / _row_counts(adj, out.dtype)[:, None]
    PERF.count("kernel_flops", 2 * adj.nnz * x.shape[1])
    return out[:, 0] if squeeze else out


def _row_counts(adj, dtype):
    """Stored edges per destination row, zero-degree rows clamped to 1
    (the mean-reduce divisor every backend shares)."""
    if isinstance(adj, KernelCOO):
        counts = np.bincount(adj.edge_dst, minlength=adj.shape[0])
    else:
        counts = adj.row_degrees()
    counts = counts.astype(dtype)
    counts[counts == 0] = 1
    return counts


def gsddmm_forward(adj, q, k, op="add", backend=None):
    """Generalized SDDMM: ``s[e] = op(q[dst_e], k[src_e])`` per stored
    edge.  ``dot`` contracts the feature axis (returns one scalar per
    edge); ``add``/``mul`` are elementwise.  Order-free, so every
    ``backend`` runs this one implementation."""
    if op not in GSDDMM_OPS:
        raise KernelError(
            f"unknown gsddmm op {op!r}; known: {', '.join(GSDDMM_OPS)}")
    adj = as_adjacency(adj)
    q, squeeze_q = _as_matrix(q)
    k, squeeze_k = _as_matrix(k)
    if q.shape[0] != adj.shape[0] or k.shape[0] != adj.shape[1]:
        raise KernelError(
            f"gsddmm operands ({q.shape[0]}, {k.shape[0]}) do not "
            f"match the adjacency shape {adj.shape}")
    if q.shape[1] != k.shape[1]:
        raise KernelError(
            f"gsddmm feature widths differ: {q.shape[1]} vs "
            f"{k.shape[1]}")
    if FLAGS.sanitize:
        _sanitize_adj(adj, "kernels.gsddmm")
        check_finite(q, name="kernels.gsddmm lhs")
        check_finite(k, name="kernels.gsddmm rhs")

    resolve_backend(backend)  # a bad name fails here like anywhere
    PERF.count("kernel_gsddmm_calls")
    edges = adj.edges()
    edge_dst, edge_src = edges.edge_dst, edges.edge_src
    if op == "dot":
        out = np.empty(adj.nnz, dtype=np.result_type(q, k))
        chunk = max(1, DOT_CHUNK_BYTES
                    // max(1, q.shape[1] * out.dtype.itemsize))
        for start in range(0, adj.nnz, chunk):
            stop = start + chunk
            _product(q[edge_dst[start:stop]], k[edge_src[start:stop]]
                     ).sum(axis=1, out=out[start:stop])
    elif op == "mul":
        out = _product(q[edge_dst], k[edge_src])
    else:
        out = q[edge_dst] + k[edge_src]
    PERF.count("kernel_flops",
               (2 if op == "dot" else 1) * adj.nnz * q.shape[1])
    if op != "dot" and squeeze_q and squeeze_k:
        return out[:, 0]
    return out


def _product(lhs, rhs):
    """``lhs * rhs`` in ``lhs``'s buffer (a fresh gather) if dtypes agree."""
    return np.multiply(lhs, rhs,
                       out=lhs if lhs.dtype == rhs.dtype else None)


def edge_softmax_forward(adj, scores, backend=None):
    """Per-destination softmax over 1-D edge scores."""
    adj = as_adjacency(adj)
    scores = np.asarray(scores)
    if scores.ndim != 1 or len(scores) != adj.nnz:
        raise KernelError(
            f"edge_softmax expects one score per stored edge "
            f"({adj.nnz}), got shape {scores.shape}")
    if FLAGS.sanitize:
        check_finite(scores, name="kernels.edge_softmax scores")
    out = _pick("edge_softmax", backend).edge_softmax(adj, scores)
    PERF.count("kernel_flops", 5 * adj.nnz)
    return out
