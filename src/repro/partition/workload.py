"""Per-machine computational and communication workload accounting.

:func:`batch_traffic` is the one count of what a machine asks the other
machines for while it prepares one sampled batch.  A block destination
the machine cannot read locally (neither owned nor replicated there) is
a remote expansion, run by its owner, which sends the sampled edges
back; an input vertex it cannot read locally is a remote feature row.
Requests travel as one message per (block, distinct remote owner) plus
one per distinct owner of a remote feature row.  Figures 4/5
(:func:`measure_workload`), the training engine's network seconds and
flaky-fetch retries (``repro.dist``) and SALIENT++ pre-sampling
(:func:`~repro.partition.replication.remote_access_frequencies`) all
read it.

:func:`measure_workload` is exactly what Figures 4 and 5 of the paper
plot: for a given partitioning, run one epoch's worth of sampling on
every machine and count, per machine,

* **sampling load** — neighbor expansions executed for the machine's own
  batches (*local*) plus expansions it executes on behalf of other
  machines that need one of its vertices expanded (*served*);
* **aggregation load** — edges aggregated during training of the
  machine's own batches (graph aggregation dominates NN compute, so the
  paper counts aggregations);
* **communication** — sampled-subgraph edges and feature bytes received
  from remote machines (deduplicated per batch, as in §2).

Replication matters: a PaGraph (Stream-V) machine holds the L-hop
neighborhood of its training vertices, so its expansions and feature
reads are all local — reproducing Stream-V's zero-communication bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PartitionError

__all__ = ["BatchTraffic", "batch_traffic", "MachineWorkload",
           "WorkloadReport", "measure_workload", "BYTES_PER_EDGE"]

# A transferred subgraph edge carries two 8-byte vertex ids.
BYTES_PER_EDGE = 16


@dataclass(frozen=True)
class BatchTraffic:
    """One machine's remote traffic for one sampled batch.

    What the machine asks the others for while it prepares the batch.

    Attributes
    ----------
    local_expansions:
        Block destinations the machine expands itself.
    served:
        ``int64 (k,)`` remote expansions each owner runs for it.
    remote_edges:
        Sampled edges those remote expansions send back.
    remote_inputs:
        Input vertices whose feature rows come from another machine
        (distinct: a batch's input set is deduplicated).
    messages:
        Request messages: one per (block, distinct remote owner) plus
        one per distinct owner of a remote feature row.
    """

    local_expansions: int
    served: np.ndarray
    remote_edges: int
    remote_inputs: np.ndarray
    messages: int


def batch_traffic(partition, part, subgraph):
    """Count machine ``part``'s remote traffic for ``subgraph``.

    ``partition`` is a :class:`~repro.partition.base.PartitionResult`;
    one ``is_local`` call per block and one for the input rows decide
    what is remote.  Returns a :class:`BatchTraffic`.
    """
    assignment = partition.assignment
    k = partition.num_parts
    served = np.zeros(k, dtype=np.int64)
    local_expansions = remote_edges = messages = 0
    for block in subgraph.blocks:
        remote = ~partition.is_local(part, block.dst_nodes)
        per_owner = np.bincount(assignment[block.dst_nodes[remote]],
                                minlength=k)
        served += per_owner
        messages += np.count_nonzero(per_owner)
        local_expansions += block.num_dst - int(per_owner.sum())
        remote_edges += int(block.degrees()[remote].sum())
    inputs = subgraph.input_nodes
    remote_inputs = inputs[~partition.is_local(part, inputs)]
    messages += np.count_nonzero(
        np.bincount(assignment[remote_inputs], minlength=k))
    return BatchTraffic(local_expansions, served, remote_edges,
                        remote_inputs, messages)


@dataclass
class MachineWorkload:
    """Workload counters for one machine (one epoch)."""

    sample_local: int = 0
    sample_served: int = 0
    aggregation_edges: int = 0
    recv_subgraph_edges: int = 0
    recv_feature_vertices: int = 0
    recv_feature_bytes: int = 0

    @property
    def compute_load(self):
        """Figure 4's stacked height: sampling work + aggregation work."""
        return self.sample_local + self.sample_served + self.aggregation_edges

    @property
    def comm_bytes(self):
        """Figure 5's stacked height: subgraph + feature traffic."""
        return (self.recv_subgraph_edges * BYTES_PER_EDGE
                + self.recv_feature_bytes)


@dataclass
class WorkloadReport:
    """Workload of every machine plus summary statistics."""

    method: str
    machines: list = field(default_factory=list)

    def _imbalance(self, values):
        values = np.asarray(values, dtype=np.float64)
        mean = values.mean()
        if mean == 0:
            return 1.0
        return float(values.max() / mean)

    @property
    def total_compute(self):
        return sum(m.compute_load for m in self.machines)

    @property
    def total_comm_bytes(self):
        return sum(m.comm_bytes for m in self.machines)

    @property
    def compute_imbalance(self):
        return self._imbalance([m.compute_load for m in self.machines])

    @property
    def comm_imbalance(self):
        comm = [m.comm_bytes for m in self.machines]
        if sum(comm) == 0:
            return 1.0
        return self._imbalance(comm)

    def summary(self):
        """Headline totals and imbalance ratios as a dict."""
        return {
            "method": self.method,
            "total_compute": self.total_compute,
            "compute_imbalance": self.compute_imbalance,
            "total_comm_MB": self.total_comm_bytes / 1e6,
            "comm_imbalance": self.comm_imbalance,
        }


def _machine_batches(dataset, partition, sampler, batch_size, rng,
                     epochs=1):
    """Every machine's own training batches, ``epochs`` shuffled passes
    each, sampled in machine order: yields ``(part, subgraph,
    traffic)``."""
    for name, value in (("batch_size", batch_size), ("epochs", epochs)):
        if value < 1:
            raise PartitionError(f"{name} must be >= 1, got {value}")
    train_ids = dataset.train_ids
    owners = partition.assignment[train_ids]
    for part in range(partition.num_parts):
        own_train = train_ids[owners == part]
        if len(own_train) == 0:
            continue
        for _epoch in range(epochs):
            order = rng.permutation(own_train)
            for start in range(0, len(order), batch_size):
                subgraph = sampler.sample(
                    dataset.graph, order[start:start + batch_size], rng)
                yield part, subgraph, batch_traffic(partition, part,
                                                    subgraph)


def measure_workload(dataset, result, sampler, batch_size=512, rng=None):
    """Account one epoch of distributed sampling + training.

    Parameters
    ----------
    dataset:
        :class:`~repro.graph.datasets.Dataset`.
    result:
        :class:`~repro.partition.base.PartitionResult` for ``k`` machines.
    sampler:
        Any :class:`~repro.sampling.base.Sampler`.
    batch_size:
        Seeds per batch on each machine (``>= 1``).
    rng:
        :class:`numpy.random.Generator`.

    Returns
    -------
    :class:`WorkloadReport`
    """
    if rng is None:
        rng = np.random.default_rng(0)
    feat_bytes = dataset.features.shape[1] * dataset.features.itemsize
    machines = [MachineWorkload() for _p in range(result.num_parts)]
    served = np.zeros(result.num_parts, dtype=np.int64)
    for part, subgraph, traffic in _machine_batches(
            dataset, result, sampler, batch_size, rng):
        me = machines[part]
        me.aggregation_edges += subgraph.total_edges
        me.sample_local += traffic.local_expansions
        me.recv_subgraph_edges += traffic.remote_edges
        me.recv_feature_vertices += len(traffic.remote_inputs)
        served += traffic.served
    for me, count in zip(machines, served.tolist()):
        me.sample_served = count
        me.recv_feature_bytes = me.recv_feature_vertices * feat_bytes
    return WorkloadReport(method=result.method, machines=machines)
