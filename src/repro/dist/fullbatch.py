"""Full-batch (full-graph) distributed training.

Table 1's second family: NeuGraph, ROC, DistGNN, DGCL, NeutronStar,
Sancus and the other full-batch systems keep *every* vertex in every
layer's computation and update the model once per epoch.  Distributed
across ``k`` machines, each layer requires every machine to fetch the
previous layer's embeddings of its *boundary* in-neighbors (vertices it
aggregates from but does not own) — the communication that dominates
full-graph training.

Full-graph training is a batch policy of the one training harness:
set ``TrainingConfig(sampler=FullGraph(staleness=s))`` (or the name
``"full-graph"``) and :class:`~repro.core.Trainer` drives a
:class:`FullBatchEngine` over ``build_model``'s GCN with the same
partition, seeds, evaluation cadence, curve and checkpoints as
mini-batch training.  Two modes:

* ``staleness=0`` — plain synchronous full-batch (NeutronStar-style):
  boundary embeddings are exchanged every layer, every epoch.
* ``staleness=s`` — Sancus-style staleness-aware communication
  avoidance: boundary embeddings are broadcast only every ``s + 1``
  epochs; in between, machines aggregate *stale* boundary values
  (treated as constants — no gradient flows through them), trading a
  bounded accuracy perturbation for (s)/(s+1) of the communication.

The layer math runs for real (numpy autograd), so the accuracy cost of
staleness is measured, not assumed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError
from ..kernels import full_graph_adjacency
from ..nn import Tensor, model_widths, no_grad, softmax_cross_entropy
from ..nn.layers import GCNConv
from ..partition import halo_vertices
from .comm import ring_allreduce_seconds
from .engine import EpochStats

__all__ = ["FullGraph", "FullBatchEngine"]


@dataclass(frozen=True)
class FullGraph:
    """The full-graph batch policy, set as ``TrainingConfig.sampler``:
    every vertex in every layer, one parameter update per epoch.
    ``staleness`` is the number of epochs boundary embeddings are
    reused between refreshes (0 = refresh every epoch)."""

    staleness: int = 0

    def __post_init__(self):
        staleness = self.staleness
        if (isinstance(staleness, bool)
                or not isinstance(staleness, numbers.Integral)
                or staleness < 0):
            raise TrainingError(
                f"staleness must be an integer >= 0, got {staleness!r}")


class FullBatchEngine:
    """Synchronous full-graph training over a partitioned cluster.

    Parameters
    ----------
    dataset, partition:
        The data and its machine assignment.
    model:
        A GCN (``convs`` of :class:`~repro.nn.layers.GCNConv` and an
        MLP ``head``, as ``build_model("gcn", ...)`` builds); the cost
        model reads its widths off the head.
    optimizer:
        Optimizer over the model parameters.
    spec:
        Hardware cost model.
    staleness:
        0 = exchange boundary embeddings every epoch; ``s`` > 0 =
        refresh every ``s + 1`` epochs, aggregate stale constants in
        between (Sancus).
    """

    def __init__(self, dataset, partition, model, optimizer, spec,
                 staleness=0):
        self.staleness = int(FullGraph(staleness).staleness)
        for conv in model.convs:
            if not isinstance(conv, GCNConv):
                raise TrainingError(
                    f"model: full-graph training runs GCNConv layers "
                    f"only, got {type(conv).__name__}")
        self.dataset = dataset
        self.partition = partition
        self.model = model
        self.optimizer = optimizer
        self.spec = spec
        self.adjacency = full_graph_adjacency(dataset.graph)
        hidden, self._num_classes = model_widths(model)
        self._dims = [dataset.feature_dim] + [hidden] * model.num_layers

        self.owned = [partition.part_vertices(p)
                      for p in range(partition.num_parts)]
        # Boundary in-neighbors per machine: aggregated-from but not
        # owned (drives the per-layer communication volume).
        self.boundary = [halo_vertices(dataset.graph, partition.assignment,
                                       p)
                         for p in range(partition.num_parts)]
        # Per-machine aggregation row slices (for compute metering and
        # stale-mode row-wise forward).
        self.row_slices = [self.adjacency.take_rows(owned)
                           for owned in self.owned]
        self.edges_per_machine = np.array(
            [rows.nnz for rows in self.row_slices])
        # Stale stores: inputs to conv layer l (l >= 1), written by
        # refreshing epochs and carried by the Trainer's checkpoints.
        self.stale_stores = [None] * model.num_layers
        self._grad_bytes = sum(p.data.size
                               for p in model.parameters()) * 4

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def _compute_seconds(self):
        """Slowest machine's FLOP time for one full forward+backward."""
        dims, worst = self._dims, 0.0
        for p, owned in enumerate(self.owned):
            flops = 0.0
            for l in range(self.model.num_layers):
                flops += 2.0 * self.edges_per_machine[p] * dims[l]
                flops += 2.0 * len(owned) * dims[l] * dims[l + 1]
            flops += 2.0 * len(owned) * dims[-1] * self._num_classes
            worst = max(worst, self.spec.compute_time(3.0 * flops))
        return worst

    def _comm_seconds(self, refresh, epoch):
        """Boundary-exchange time and bytes for ``epoch``."""
        k = self.partition.num_parts
        if k == 1:
            return 0.0, 0
        total_bytes = 0
        worst = 0.0
        for boundary in map(len, self.boundary):
            layer_bytes = 0
            if epoch == 0:
                # Feature (layer-0) boundary exchange happens once ever.
                layer_bytes += boundary * self._dims[0] * 4
            if refresh:
                for l in range(1, self.model.num_layers):
                    # Forward broadcast + backward gradient return.
                    layer_bytes += 2 * boundary * self._dims[l] * 4
            total_bytes += layer_bytes
            if layer_bytes:
                worst = max(worst, self.spec.network_time(
                    layer_bytes, messages=2 * (k - 1)))
        return worst, total_bytes

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _forward(self, refresh, record=True):
        """One full-graph forward, fresh or with stale boundaries; a
        refreshing pass with ``record`` writes the stale stores."""
        stores = self.stale_stores
        h = Tensor(self.dataset.features)
        for l, conv in enumerate(self.model.convs):
            if refresh or l == 0 or stores[l] is None:
                # Fresh layer (features, layer 0, are constants anyway).
                out = conv.forward(self.adjacency, h)
            else:
                pieces = [conv.forward(rows, h.mask_rows(owned, stores[l]))
                          for owned, rows in zip(self.owned,
                                                 self.row_slices)]
                out = Tensor.assemble_rows(pieces, self.owned,
                                           self.dataset.num_vertices)
            h = out.relu()
            if refresh and record and l + 1 < self.model.num_layers:
                stores[l + 1] = h.data.copy()
        return self.model.head.forward(h)

    def run_epoch(self, batch_size, rng, epoch):
        """One full-batch epoch (exactly one parameter update) at
        ``epoch`` on the refresh clock.  ``batch_size`` and ``rng`` are
        the Trainer's per-epoch arguments; the batch is every training
        vertex and nothing is drawn."""
        refresh = (self.staleness == 0
                   or epoch % (self.staleness + 1) == 0)
        logits = self._forward(refresh)
        train_ids = self.dataset.train_ids
        loss = softmax_cross_entropy(logits.gather_rows(train_ids),
                                     self.dataset.labels[train_ids])
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()

        compute = self._compute_seconds()
        comm, comm_bytes = self._comm_seconds(refresh, epoch)
        allreduce = ring_allreduce_seconds(self.spec, self._grad_bytes,
                                           self.partition.num_parts)
        return EpochStats(
            loss=loss.item(),
            epoch_seconds=compute + comm + allreduce,
            bp_seconds=0.0,
            dt_seconds=comm,
            nn_seconds=compute,
            allreduce_seconds=allreduce,
            num_steps=1,
            involved_vertices=self.dataset.num_vertices
            * self.model.num_layers,
            involved_edges=int(self.edges_per_machine.sum())
            * self.model.num_layers,
            remote_feature_bytes=comm_bytes,
            batch_size=len(train_ids))

    def evaluate(self, vertex_ids):
        """Accuracy on ``vertex_ids`` of a fresh full-graph forward
        (no tape; the stale stores are left as they are)."""
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        if len(vertex_ids) == 0:
            return 0.0
        with no_grad():
            logits = self._forward(refresh=True, record=False)
        predictions = logits.data[vertex_ids].argmax(axis=-1)
        return float((predictions
                      == self.dataset.labels[vertex_ids]).mean())
