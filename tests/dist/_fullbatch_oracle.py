"""The full-batch harness as it stood before full-graph training ran on
the :class:`~repro.core.Trainer`: its own GCN class, engine (own epoch
counter, all-reduce and evaluation forward) and hand-rolled epoch loop.

Kept verbatim (two ports aside: the deleted ``full_aggregation_matrix``
pass-through — it calls ``full_graph_adjacency`` directly — and the
deleted train / eval mode — dropout draws while a tape is recorded, so
the evaluation forward runs under ``no_grad``) as the reference
``test_fullbatch_oracle.py`` holds the Trainer's ``FullGraph`` policy
to bit for bit; the other full-batch tests compare its width-explicit
cost model and per-vertex boundary walk.  Used only as a reference.
"""

from __future__ import annotations

import numpy as np

from repro.dist import EpochStats
from repro.errors import TrainingError
from repro.kernels import full_graph_adjacency
from repro.nn import Adam, Tensor, no_grad, softmax_cross_entropy
from repro.nn.layers import GCNConv, MLP, Module


class FullGraphGCN(Module):
    """GCN over the whole graph (no sampling): L GCNConv layers + MLP
    head, mirroring the mini-batch architecture for fair comparison."""

    def __init__(self, in_dim, hidden_dim, num_classes, num_layers, rng,
                 dropout=0.1):
        if num_layers < 1:
            raise TrainingError("need at least one GNN layer")
        dims = [in_dim] + [hidden_dim] * num_layers
        self.convs = [GCNConv(dims[i], dims[i + 1], rng)
                      for i in range(num_layers)]
        self.head = MLP([hidden_dim, num_classes], rng)
        self.dropout_p = float(dropout)
        self.rng = rng
        self.num_layers = num_layers

    def forward(self, adjacency, features):
        """Plain full-graph forward (used by tests and single-machine
        runs; the engine drives the layers itself for stale mode)."""
        h = features if isinstance(features, Tensor) else Tensor(features)
        for i, conv in enumerate(self.convs):
            h = conv.forward(adjacency, h).relu()
            if i < len(self.convs) - 1:
                h = h.dropout(self.dropout_p, self.rng)
        return self.head.forward(h)


class FullBatchEngine:
    """Synchronous full-graph training over a partitioned cluster.

    Parameters
    ----------
    dataset, partition:
        The data and its machine assignment.
    model:
        :class:`FullGraphGCN` (or anything with ``convs``/``head``).
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
                 staleness=0, hidden_dim=128):
        if staleness < 0:
            raise TrainingError(f"staleness must be >= 0, got {staleness}")
        self.dataset = dataset
        self.partition = partition
        self.model = model
        self.optimizer = optimizer
        self.spec = spec
        self.staleness = int(staleness)
        self.hidden_dim = hidden_dim
        self.adjacency = full_graph_adjacency(dataset.graph)

        n = dataset.num_vertices
        assignment = partition.assignment
        self.owned = [np.flatnonzero(assignment == p)
                      for p in range(partition.num_parts)]
        # Boundary in-neighbors per machine: aggregated-from but not
        # owned (drives the per-layer communication volume).
        in_indptr, in_indices = dataset.graph.in_csr()
        self.boundary = []
        for p, owned in enumerate(self.owned):
            chunks = [in_indices[in_indptr[v]:in_indptr[v + 1]]
                      for v in owned]
            sources = np.unique(np.concatenate(chunks)) if chunks else \
                np.empty(0, dtype=np.int64)
            self.boundary.append(
                sources[assignment[sources] != p])
        # Per-machine aggregation row slices (for compute metering and
        # stale-mode row-wise forward).
        self.row_slices = [self.adjacency.take_rows(owned)
                           for owned in self.owned]
        self.edges_per_machine = np.array(
            [rows.nnz for rows in self.row_slices])
        # Stale stores: inputs to conv layer l (l >= 1).
        self._stores = [None] * model.num_layers
        self._epoch_index = 0
        self._grad_bytes = sum(p.data.size
                               for p in model.parameters()) * 4

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def _layer_dims(self):
        in_dim = self.dataset.feature_dim
        return [in_dim] + [self.hidden_dim] * self.model.num_layers

    def _compute_seconds(self):
        """Slowest machine's FLOP time for one full forward+backward."""
        dims = self._layer_dims()
        worst = 0.0
        for p, owned in enumerate(self.owned):
            flops = 0.0
            for l in range(self.model.num_layers):
                flops += 2.0 * self.edges_per_machine[p] * dims[l]
                flops += 2.0 * len(owned) * dims[l] * dims[l + 1]
            flops += 2.0 * len(owned) * self.hidden_dim \
                * self.dataset.num_classes
            worst = max(worst, self.spec.compute_time(3.0 * flops))
        return worst

    def _comm_seconds(self, refresh):
        """Boundary-exchange time for the epoch."""
        if self.partition.num_parts == 1:
            return 0.0, 0
        dims = self._layer_dims()
        total_bytes = 0
        worst = 0.0
        for p in range(self.partition.num_parts):
            boundary = len(self.boundary[p])
            layer_bytes = 0
            if self._epoch_index == 0:
                # Feature (layer-0) boundary exchange happens once ever.
                layer_bytes += boundary * dims[0] * 4
            if refresh:
                for l in range(1, self.model.num_layers):
                    # Forward broadcast + backward gradient return.
                    layer_bytes += 2 * boundary * dims[l] * 4
            total_bytes += layer_bytes
            if layer_bytes:
                worst = max(worst, self.spec.network_time(
                    layer_bytes,
                    messages=2 * (self.partition.num_parts - 1)))
        return worst, total_bytes

    def _allreduce_seconds(self):
        k = self.partition.num_parts
        if k == 1:
            return 0.0
        volume = 2.0 * (k - 1) / k * self._grad_bytes
        return self.spec.network_time(volume, messages=2 * (k - 1))

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _forward(self, refresh):
        """One full-graph forward, fresh or with stale boundaries."""
        n = self.dataset.num_vertices
        h = Tensor(self.dataset.features)
        for l, conv in enumerate(self.model.convs):
            if refresh or l == 0 or self._stores[l] is None:
                # Fresh layer (features, layer 0, are constants anyway).
                out = conv.forward(self.adjacency, h)
            else:
                pieces = []
                for p, owned in enumerate(self.owned):
                    mixed = h.mask_rows(owned, self._stores[l])
                    pieces.append(conv.forward(self.row_slices[p], mixed))
                out = Tensor.assemble_rows(pieces, self.owned, n)
            h = out.relu()
            if l + 1 < self.model.num_layers:
                # Record this activation as the (stale) input of the
                # next conv layer when refreshing.
                if refresh:
                    self._stores[l + 1] = h.data.copy()
        return self.model.head.forward(h)

    def run_epoch(self):
        """One full-batch epoch (exactly one parameter update)."""
        refresh = (self.staleness == 0
                   or self._epoch_index % (self.staleness + 1) == 0)
        logits = self._forward(refresh)
        train_ids = self.dataset.train_ids
        loss = softmax_cross_entropy(logits.gather_rows(train_ids),
                                     self.dataset.labels[train_ids])
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()

        compute = self._compute_seconds()
        comm, comm_bytes = self._comm_seconds(refresh)
        allreduce = self._allreduce_seconds()
        self._epoch_index += 1
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
        """Full-graph inference accuracy on ``vertex_ids``."""
        with no_grad():
            logits = self.model.forward(self.adjacency,
                                        self.dataset.features)
        predictions = logits.data.argmax(axis=-1)
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        if len(vertex_ids) == 0:
            return 0.0
        return float((predictions[vertex_ids]
                      == self.dataset.labels[vertex_ids]).mean())


def oracle_run(config, dataset, partition, staleness):
    """The bench's hand-rolled loop over the oracle engine, seeded like
    the Trainer: the model from ``config.rng(salt=2)``, one evaluation
    per epoch.  Returns ``(epoch_stats, val_accuracies, engine)``."""
    model = FullGraphGCN(dataset.feature_dim, config.hidden_dim,
                         dataset.num_classes, config.num_layers,
                         config.rng(salt=2), dropout=config.dropout)
    engine = FullBatchEngine(dataset, partition, model,
                             Adam(model.parameters(),
                                  lr=config.learning_rate),
                             spec=config.spec, staleness=staleness,
                             hidden_dim=config.hidden_dim)
    stats, accuracies = [], []
    for _epoch in range(config.epochs):
        stats.append(engine.run_epoch())
        accuracies.append(engine.evaluate(dataset.val_ids))
    return stats, accuracies, engine
