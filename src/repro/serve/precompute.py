"""Layer-wise precomputed embeddings and the exact on-demand reference.

Full-fanout GNN inference has a classic data-management identity: the
seed embeddings a model produces from a query's full L-hop neighborhood
are *the same rows* a layer-by-layer full-graph forward pass produces
for the whole vertex set.  Serving systems exploit it by running the
full-graph pass offline ("layer-wise inference" in DGL's terminology)
and answering queries with an embedding-table lookup plus the final
classifier head — trading one big offline pass for per-query work that
no longer explodes with depth.

:class:`LayerwiseEmbeddings` implements both sides:

* :meth:`answers` — the serving path: one gather from a per-vertex
  *answer table*.  The classifier head is the offline pass's last
  layer: the build ends by running it over every row of the embedding
  table, each row as its own ``(1, d)`` pass, and by taking each
  row's argmax, so an answer is a pure function of the queried vertex
  and serving never runs the model (:meth:`logits`, the batched
  ``(m, d)`` head over gathered embedding rows, stays as the on-demand
  path's bit-match partner);
* :meth:`ondemand_logits` — the reference path: expand the query's full
  (every-neighbor) L-hop neighborhood and compute embeddings from raw
  features at query time, metering the edges/vertices/FLOPs a real
  on-demand server would pay.

The two are **bit-identical by construction**, not just numerically
close.  Floating-point addition is order-sensitive, so equality needs
both paths to execute the same per-row operations in the same order:

* both run the model's own ``conv.forward`` (under
  :class:`~repro.nn.no_grad`) over one shared CSR operator per layer,
  dispatched through :mod:`repro.kernels` — the on-demand path's
  operator is that one with every row outside the needed set emptied,
  and the kernel evaluates a kept row's dot product over the same
  stored non-zeros in the same order as the full product;
* that operator keeps full height, and the on-demand path keeps its
  intermediate rows in full-width ``(num_vertices, dim)`` buffers, so
  each GEMM has exactly the table build's shape and each output row
  depends only on its own (identical) input row.

The full-width buffers make the on-demand path as *computationally*
expensive as a full-graph pass — which is the point it demonstrates:
neighborhood explosion means full-fanout on-demand inference touches
nearly the whole graph anyway.  The metered costs report the honest
needed-set sizes, not the implementation's padded GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.sanitize import check_finite
from ..errors import ServingError
from ..kernels import KernelCSR, full_graph_adjacency
from ..nn.layers import GCNConv, SAGEConv
from ..nn.tensor import Tensor, no_grad

__all__ = ["LayerwiseEmbeddings", "OndemandStats"]


@dataclass(frozen=True)
class OndemandStats:
    """Metered cost of one exact on-demand (full-fanout) batch.

    Attributes
    ----------
    edges:
        Aggregation edges touched across all layers (the
        batch-preparation work a real server would do).
    input_ids:
        Distinct vertices whose raw features the batch needs (the rows
        a feature cache is consulted for).
    flops:
        Forward FLOPs over the needed sets (aggregation + dense
        transforms + classifier head).
    """

    edges: int
    input_ids: np.ndarray
    flops: float

    @property
    def input_vertices(self):
        return len(self.input_ids)


def _keep_rows(operator, rows):
    """``operator`` with every row outside ``rows`` emptied: the same
    shape, each kept row's stored entries in their original order."""
    keep = np.zeros(operator.shape[0], dtype=bool)
    keep[rows] = True
    degrees = operator.row_degrees()
    entries = np.repeat(keep, degrees)
    indptr = np.concatenate(([0], np.cumsum(np.where(keep, degrees, 0))))
    return KernelCSR(indptr, operator.indices[entries],
                     operator.data[entries], operator.shape)


def _relu(x):
    """The rectifier both paths share (rows are independent, so the
    table build and the on-demand path produce identical bits)."""
    return np.maximum(x, 0)


class LayerwiseEmbeddings:
    """Full-graph layer-wise embedding table for a trained block model.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.layers.GCN` or
        :class:`~repro.nn.layers.GraphSAGE` (anything stacking
        ``GCNConv``/``SAGEConv`` layers with a ``head`` MLP).  GAT's
        data-dependent attention has no precomputable linear operator,
        so it is rejected.
    graph, features:
        The graph and raw input features served against.

    The build runs the model's own convs and head under
    :class:`~repro.nn.no_grad`, so it records no tape and dropout is
    the identity: no random mask is baked into an answer, and the
    dropout rng that bit-exact resume checkpoints does not move.

    Both tables are a *snapshot* of the model at build time — conv
    weights and head alike.  A model trained further afterwards is
    served from the old snapshot until the tables are rebuilt.

    Attributes
    ----------
    table:
        ``(num_vertices, hidden)`` final-layer embeddings — the rows a
        serving node caches and is billed for.
    logit_table:
        ``(num_vertices, num_classes)`` head outputs;
        ``num_classes / hidden`` of ``table``'s memory on top (352 KB
        beside 1.1 MB for 2 200 vertices, 40 classes, width 128).
    answer_table:
        ``(num_vertices,)`` int64 ``logit_table.argmax(axis=-1)``, the
        answers themselves.  Serving reads it through :meth:`answers`.
    """

    def __init__(self, model, graph, features):
        convs = getattr(model, "convs", None)
        head = getattr(model, "head", None)
        if not convs or head is None:
            raise ServingError(
                "layer-wise precompute needs a conv-stack model with a "
                "classifier head (GCN or GraphSAGE)")
        for conv in convs:
            if not isinstance(conv, (GCNConv, SAGEConv)):
                raise ServingError(
                    f"layer-wise precompute supports GCNConv/SAGEConv "
                    f"stacks, not {type(conv).__name__}")
        self.graph = graph
        self.convs = list(convs)
        self.head = head
        self.num_vertices = graph.num_vertices
        self.features = np.asarray(features)

        # One shared aggregation operator per self-loop convention;
        # GCN aggregates itself in the mean, SAGE keeps an explicit
        # self path.
        self._operators = {}
        for conv in self.convs:
            loops = isinstance(conv, GCNConv)
            if loops not in self._operators:
                self._operators[loops] = full_graph_adjacency(
                    graph, self_loops=loops)

        # Offline table build: the full-graph pass every vertex shares.
        self.build_edges = 0
        self.build_flops = 0.0
        everyone = np.arange(self.num_vertices, dtype=np.int64)
        h = self.features
        for conv in self.convs:
            h, edges, flops = self._apply_conv(conv, h, everyone)
            self.build_edges += edges
            self.build_flops += flops
        self.table = check_finite(h, name="precomputed embedding table")
        # The head is the offline pass's last layer: every vertex is
        # its own (1, d) pass, handed to numpy as one stacked
        # (N, 1, d) operand (see answers), and the pass ends at the
        # answer.
        logits = self._head_logits(self.table[:, None, :])
        self.logit_table = check_finite(
            logits[:, 0], name="precomputed logit table")
        self.answer_table = self.logit_table.argmax(axis=-1)

    # ------------------------------------------------------------------
    # Shared layer math
    # ------------------------------------------------------------------
    def _operator(self, conv):
        return self._operators[isinstance(conv, GCNConv)]

    def _apply_conv(self, conv, h_in, dst):
        """Rows ``dst`` of ``relu(conv(h_in))`` in a full-width buffer.

        ``h_in`` must be a ``(num_vertices, d_in)`` buffer whose rows
        are valid for ``dst`` and every in-neighbor of ``dst``; the
        returned buffer's rows are valid exactly for ``dst``.  The
        operator keeps only ``dst``'s rows but stays full height, so
        every shape is the table build's and the per-row float
        operations match it bit for bit.
        """
        operator = self._operator(conv)
        if len(dst) < self.num_vertices:
            operator = _keep_rows(operator, dst)
        with no_grad():
            out = conv.forward(operator, Tensor(h_in)).data
        edges = operator.nnz
        d_in = h_in.shape[1]
        d_out = out.shape[1]
        flops = 2.0 * edges * d_in + 2.0 * len(dst) * d_in * d_out
        if isinstance(conv, SAGEConv):
            flops += 2.0 * len(dst) * d_in * d_out
        result = np.zeros_like(out)
        result[dst] = _relu(out[dst])
        return result, edges, flops

    def _head_logits(self, rows):
        """Classifier head over gathered embedding rows (one shared
        code path, so both serving modes transform identical inputs
        identically)."""
        with no_grad():
            return self.head.forward(
                Tensor(np.ascontiguousarray(rows))).data

    def head_flops(self, batch_size):
        """Forward FLOPs of the MLP head for ``batch_size`` rows."""
        flops = 0.0
        for layer in self.head.layers:
            in_dim, out_dim = layer.weight.data.shape
            flops += 2.0 * batch_size * in_dim * out_dim
        return flops

    # ------------------------------------------------------------------
    # Serving paths
    # ------------------------------------------------------------------
    def logits(self, vertices):
        """Precomputed-mode logits: table lookup + head."""
        vertices = np.asarray(vertices, dtype=np.int64)
        return self._head_logits(self.table[vertices])

    def answers(self, vertices):
        """Precomputed-mode answers: a gather from the answer table.

        BLAS dispatches different kernels for ``(1, d)`` and ``(m, d)``
        operands, so the *bits* of a row's logits through
        :meth:`logits` can depend on the size of the batch it rode in.
        Serving answers must instead be a pure function of the queried
        vertex — the property that lets a sharded fleet re-batch,
        spill, and fail over requests while remaining bit-identical to
        a single server.  So one shape is pinned: every vertex's logits
        are those of its own ``(1, d)`` head pass.

        Being a function of the vertex alone, they depend on nothing
        the serving path knows, and the head is run as the offline
        pass's last layer instead of per request: the build hands the
        head the whole embedding table as one stacked ``(N, 1, d)``
        operand.  numpy evaluates a stacked matmul item by item through
        the routine the 2-D call uses, and bias and ReLU are
        elementwise, so that is N independent ``(1, d)`` passes — the
        same bits as a python loop over rows (kept as the oracle
        ``tests/serve/_rowwise_oracle.py``), with no python per row.
        The argmax of a row is as fixed as the row, so the build takes
        it too, and serving is an index: the *simulated* server still
        fetches embedding rows through its cache and is billed the
        head's FLOPs per batch (:meth:`head_flops`); only the host
        stops re-deriving what it already has.

        ``vertices`` must lie in ``[0, num_vertices)`` (the engines
        validate a trace once per run — a negative id would otherwise
        alias a row from the end of the table).  The returned answers
        are an int64 copy.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            raise ServingError("cannot serve an empty query batch")
        return self.answer_table[vertices]

    def rowwise_logits(self, vertices):
        """The logit-table rows behind :meth:`answers` (copies, same
        validation), for callers that want logits rather than answers."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            raise ServingError("cannot serve an empty query batch")
        return self.logit_table[vertices]

    def ondemand_logits(self, vertices):
        """Exact full-fanout on-demand logits plus metered cost.

        Returns ``(logits, OndemandStats)``; the logits bit-match
        :meth:`logits` on the same ``vertices``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            raise ServingError("cannot serve an empty query batch")

        # Needed row sets, outermost first: needed[l] are the rows of
        # layer l's *output* the query depends on.
        in_indptr, in_indices = self.graph.in_csr()
        needed = [None] * (len(self.convs) + 1)
        needed[-1] = np.unique(vertices)
        for level in range(len(self.convs) - 1, -1, -1):
            out_rows = needed[level + 1]
            chunks = [in_indices[in_indptr[v]:in_indptr[v + 1]]
                      for v in out_rows]
            chunks.append(out_rows)
            needed[level] = np.unique(np.concatenate(chunks))

        total_edges = 0
        total_flops = 0.0
        h = self.features
        for level, conv in enumerate(self.convs):
            h, edges, flops = self._apply_conv(conv, h, needed[level + 1])
            total_edges += edges
            total_flops += flops
        total_flops += self.head_flops(len(vertices))

        logits = self._head_logits(h[vertices])
        return logits, OndemandStats(edges=total_edges,
                                     input_ids=needed[0],
                                     flops=total_flops)
