"""Pluggable sparse-kernel registry (gspmm/gsddmm).

The one seam every aggregation in the library dispatches through: the
GCN/SAGE mean aggregation, GAT's edge-score SDDMM + edge softmax +
attention-weighted SpMM, the full-batch engine's persistent adjacency,
and the serving tables' full-graph operators.

Layers (top to bottom):

* :mod:`~repro.kernels.autograd` — ``gspmm``/``gsddmm``/
  ``edge_softmax`` with a thin forward/backward boundary (backward
  through the explicitly materialized, memoized transposed CSR), and
  ``gat_attention``, one GAT head's attention as a single node;
* :mod:`~repro.kernels.registry` — backend registration, capability
  fallback, ``FLAGS.kernel_backend`` resolution, per-backend call/FLOP
  counters via :data:`repro.perf.PERF`;
* backends — :mod:`~repro.kernels.reference` (pinned numpy semantics:
  the literal ``np.add.at`` scatter) and
  :mod:`~repro.kernels.scipy_backend` (compiled CSR SpMM for both
  layouts plus segment-reduction edge softmax, bit-identical to the
  reference);
* :mod:`~repro.kernels.adjacency` — :class:`KernelCSR` /
  :class:`KernelCOO` containers, the memoized transpose and
  destination-sorted segment view, and the per-block views
  (normalized operators, GAT's edge list) read off a sampled block's
  CSR and memoized on it.

Select a backend globally with ``FLAGS.kernel_backend`` (``"auto"``,
``"reference"``, ``"scipy"``) or per call via ``backend=``; see
``docs/architecture.md`` ("Kernel registry").
"""

from .adjacency import (KernelCOO, KernelCSR, as_adjacency,
                        block_attention_edges, full_graph_adjacency,
                        normalized_block_adjacency, transpose_csr)
from .autograd import edge_softmax, gat_attention, gsddmm, gspmm
from .registry import (GSDDMM_OPS, GSPMM_OPS, REDUCES,
                       available_backends, edge_softmax_forward,
                       gsddmm_forward, gspmm_forward, register_backend,
                       resolve_backend)

__all__ = [
    "gspmm", "gsddmm", "edge_softmax", "gat_attention",
    "gspmm_forward", "gsddmm_forward", "edge_softmax_forward",
    "KernelCSR", "KernelCOO", "as_adjacency", "transpose_csr",
    "normalized_block_adjacency", "block_attention_edges",
    "full_graph_adjacency",
    "register_backend", "available_backends", "resolve_backend",
    "GSPMM_OPS", "GSDDMM_OPS", "REDUCES",
]
