"""The sparse kernels (gspmm/gsddmm/edge_softmax).

The one seam every aggregation in the library runs through: the
GCN/SAGE mean aggregation, GAT's edge-score SDDMM + edge softmax +
attention-weighted SpMM, the full-batch engine's persistent adjacency,
and the serving tables' full-graph operators.

Layers (top to bottom):

* :mod:`~repro.kernels.autograd` — ``gspmm``/``gsddmm``/
  ``edge_softmax`` with a thin forward/backward boundary (backward
  through the explicitly materialized, memoized transposed CSR), and
  ``gat_attention``, one GAT head's attention as a single node;
* :mod:`~repro.kernels.registry` — the forward kernels: one compiled
  path per op (scipy's ``csr_matvecs`` row walk for both layouts, a
  segment-reduction edge softmax), FLOP counters via
  :data:`repro.perf.PERF`;
* :mod:`~repro.kernels.adjacency` — :class:`KernelCSR` /
  :class:`KernelCOO` containers, the memoized transpose and
  destination-sorted segment view, and the per-block views
  (normalized operators, GAT's edge list) read off a sampled block's
  CSR and memoized on it.

See ``docs/architecture.md`` ("Kernel seam").
"""

from .adjacency import (KernelCOO, KernelCSR, as_adjacency,
                        block_attention_edges, full_graph_adjacency,
                        normalized_block_adjacency, transpose_csr)
from .autograd import edge_softmax, gat_attention, gsddmm, gspmm
from .registry import (GSDDMM_OPS, GSPMM_OPS, REDUCES,
                       edge_softmax_forward, gsddmm_forward, gspmm_forward)

__all__ = [
    "gspmm", "gsddmm", "edge_softmax", "gat_attention",
    "gspmm_forward", "gsddmm_forward", "edge_softmax_forward",
    "KernelCSR", "KernelCOO", "as_adjacency", "transpose_csr",
    "normalized_block_adjacency", "block_attention_edges",
    "full_graph_adjacency",
    "GSPMM_OPS", "GSDDMM_OPS", "REDUCES",
]
