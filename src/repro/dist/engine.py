"""Synchronous data-parallel training engine over the simulated cluster.

One *step* of synchronous distributed mini-batch training: every worker
samples a batch from its own training vertices, computes gradients on the
shared model (data-parallel replicas are mathematically one model), the
gradients are averaged (all-reduce), and the optimizer steps.  The engine
performs that math for real (numpy autograd) while metering every byte
that would have crossed the network or PCIe, then converts counts to a
simulated epoch time:

    epoch = max over workers of pipeline(BP, DT, NN batches)
            + all-reduce time per step

Remote work accounting per batch reads
:func:`~repro.partition.workload.batch_traffic`, the count behind
Figures 4/5:

* sampled vertices not readable locally -> remote sampling requests;
  the returned sub-adjacency counts as network bytes,
* input features not owned/replicated locally -> network bytes,
* its request messages -> the flaky-fetch retry draws,
* features not in the worker's GPU cache -> PCIe bytes (via the
  configured transfer method).

Batch selection (§6.3.2) is the engine's ``selector``: a
:class:`~repro.batching.selection.BatchSelector` splits every worker's
own training vertices into the epoch's seed batches (random by
default, cluster-based for Table 6 / Figure 11).

Fault tolerance (``repro.faults``): the engine optionally takes a
:class:`~repro.faults.plan.FaultInjector` and a
:class:`~repro.faults.retry.RetryPolicy`, and reads crashes and window
multipliers off the plan's timeline at the epoch it is given.
Stragglers multiply a worker's stage times, degraded links scale the
network bandwidth for the epoch, and flaky remote fetches pay retry
timeouts/backoff in simulated time (counted on :class:`EpochStats`; the
training math is unaffected — a fetch that exhausts its budget is
served by a fail-slow fallback, so faulty and healthy runs share one
loss curve).  A permanent worker crash
removes the machine: its training vertices are either redistributed to
survivors (``crash_policy="redistribute"``) or dropped
(``crash_policy="drop"``), and the all-reduce ring shrinks to the
survivors.  The crashed machine's graph/feature shard stays reachable —
storage outlives the compute — so survivors fetch adopted vertices'
data remotely, which is exactly the extra cost the fault benchmark
measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..batching.selection import RandomBatchSelector
from ..errors import FaultError, TrainingError
from ..nn import model_widths, softmax_cross_entropy
from ..perf import PERF, ordered_sum
from ..partition.workload import BYTES_PER_EDGE, batch_traffic
from ..transfer.hardware import estimate_flops
from ..transfer.methods import BatchStats
from ..transfer.pipeline import simulate_pipeline
from .comm import ring_allreduce_seconds
from .worker import BatchWork, Worker

__all__ = ["SyncEngine", "EpochStats"]

#: (EpochStats field, the BatchWork field it sums over every worker's
#: batches of the epoch, the sum): counts add exactly, seconds left to
#: right on every python (``ordered_sum``; the builtin ``sum``
#: compensates float sums from 3.12).
_SUMMED = (("bp_seconds", "bp_seconds", ordered_sum),
           ("dt_seconds", "dt_seconds", ordered_sum),
           ("nn_seconds", "nn_seconds", ordered_sum),
           ("involved_vertices", "input_vertices", sum),
           ("involved_edges", "sampled_edges", sum),
           ("remote_feature_bytes", "remote_feature_bytes", sum),
           ("retries", "retries", sum), ("giveups", "giveups", sum),
           ("fault_seconds", "fault_seconds", ordered_sum))


@dataclass
class EpochStats:
    """Everything measured during one training epoch."""

    loss: float
    epoch_seconds: float           # simulated wall time of the epoch
    bp_seconds: float              # summed batch-preparation time
    dt_seconds: float              # summed CPU->GPU transfer time
    nn_seconds: float              # summed NN computation time
    allreduce_seconds: float
    num_steps: int
    involved_vertices: int         # total vertex slots in sampled blocks
    involved_edges: int            # total aggregation edges
    remote_feature_bytes: int
    batch_size: int
    # Fault/recovery accounting (zero on healthy runs): remote-fetch
    # re-requests issued, fetches whose retry budget was exhausted
    # (served by the fail-slow fallback), simulated seconds added by
    # retries/timeouts, surviving worker count, and training vertices
    # currently dropped because of crashes under crash_policy="drop".
    retries: int = 0
    giveups: int = 0
    fault_seconds: float = 0.0
    alive_workers: int = 0
    dropped_vertices: int = 0
    # Measured (not simulated) hot-path wall seconds and counters
    # accumulated during this epoch (``repro.perf.PERF`` delta).
    perf: dict = field(repr=False, default=None)

    def __post_init__(self):
        # Normalize so downstream ``stats.perf.get(...)`` never sees
        # None (callers may construct EpochStats without a perf delta).
        if self.perf is None:
            self.perf = {}

    def breakdown(self):
        """Step shares of the (sequential) work — Figure 2's quantities."""
        total = (self.bp_seconds + self.dt_seconds + self.nn_seconds
                 + self.allreduce_seconds)
        if total == 0:
            return {"batch_preparation": 0.0, "data_transferring": 0.0,
                    "nn_computation": 0.0}
        return {
            "batch_preparation": self.bp_seconds / total,
            "data_transferring": self.dt_seconds / total,
            "nn_computation": (self.nn_seconds
                               + self.allreduce_seconds) / total,
        }


class SyncEngine:
    """Drives synchronous distributed mini-batch training.

    Parameters
    ----------
    dataset:
        :class:`~repro.graph.datasets.Dataset`.
    partition:
        :class:`~repro.partition.base.PartitionResult` defining worker
        ownership (and replication).
    sampler:
        Batch-preparation sampler.
    selector:
        :class:`~repro.batching.selection.BatchSelector` forming each
        worker's seed batches; default
        :class:`~repro.batching.selection.RandomBatchSelector`.
    model, optimizer:
        The shared model and its optimizer; the FLOPs estimate reads
        the hidden and class widths off the model's head.
    spec:
        :class:`~repro.transfer.hardware.HardwareSpec` cost model.
    transfer:
        :class:`~repro.transfer.methods.TransferMethod` for CPU->GPU.
    caches:
        Optional list of per-worker GPU caches (parallel to workers).
    pipeline_mode:
        "none", "bp", or "bp+dt" (§7.3.2).
    injector:
        Optional :class:`~repro.faults.plan.FaultInjector` replaying a
        seeded fault schedule against the epoch clock.
    retry:
        :class:`~repro.faults.retry.RetryPolicy` for flaky remote
        fetches (defaults to ``RetryPolicy()`` when an injector is
        given).
    crash_policy:
        What to do with a crashed worker's training vertices:
        ``"redistribute"`` (split among survivors, deterministic
        worker-id order) or ``"drop"`` (excluded from every later
        epoch).
    """

    CRASH_POLICIES = ("redistribute", "drop")

    def __init__(self, dataset, partition, sampler, model, optimizer,
                 spec, transfer, caches=None, pipeline_mode="bp+dt",
                 injector=None, retry=None, crash_policy="redistribute",
                 selector=None):
        if crash_policy not in self.CRASH_POLICIES:
            raise TrainingError(
                f"unknown crash_policy {crash_policy!r}; "
                f"known: {self.CRASH_POLICIES}")
        self.dataset = dataset
        self.partition = partition
        self.sampler = sampler
        self.selector = selector or RandomBatchSelector()
        self.model = model
        self.optimizer = optimizer
        self.spec = spec
        self.transfer = transfer
        self.pipeline_mode = pipeline_mode
        self._hidden_dim, self._num_classes = model_widths(model)

        train_ids = dataset.train_ids
        owners = partition.assignment[train_ids]
        caches = caches or [None] * partition.num_parts
        if len(caches) != partition.num_parts:
            raise TrainingError("need one cache slot per worker")
        self.workers = [
            Worker(worker_id=p, train_ids=train_ids[owners == p],
                   cache=caches[p])
            for p in range(partition.num_parts)
        ]
        self._grad_bytes = sum(p.data.size for p in model.parameters()) * 4

        self.injector = injector
        self.crash_policy = crash_policy
        if retry is None and injector is not None:
            from ..faults.retry import RetryPolicy
            retry = RetryPolicy()
        self.retry = retry
        self._dropped = 0
        # Per-epoch fault state, refreshed by run_epoch().
        self._epoch_spec = spec
        self._stage_multipliers = {}
        self._fetch_keys = {}

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    @property
    def alive_workers(self):
        """The workers that have not crashed."""
        return [w for w in self.workers if w.alive]

    def _apply_crashes(self, epoch):
        """Kill workers whose scheduled crash epoch has arrived and
        redistribute or drop their training vertices.

        The plan's ``crashes`` are in ``(time, worker)`` order, so a
        resumed run — which applies several past crashes in one call —
        reproduces the exact redistribution sequence of the original.
        """
        for time, worker_id, _down in self.injector.plan.crashes:
            if time > epoch:
                break
            if worker_id >= len(self.workers):
                raise FaultError(
                    f"crash fault targets worker {worker_id} but the "
                    f"cluster has {len(self.workers)} workers")
            worker = self.workers[worker_id]
            if not worker.alive:
                continue
            surrendered = worker.crash()
            survivors = self.alive_workers
            if not survivors:
                raise FaultError(
                    f"every worker has crashed by epoch {epoch}; "
                    f"nothing left to train on")
            if self.crash_policy == "redistribute":
                for survivor, share in zip(
                        survivors,
                        np.array_split(surrendered, len(survivors))):
                    if len(share):
                        survivor.adopt(share)
            else:
                self._dropped += len(surrendered)

    def _begin_epoch_faults(self, epoch):
        """Refresh the epoch's fault state (spec, multipliers, rng
        streams); raises :class:`FaultError` on a scheduled halt."""
        self._stage_multipliers = {}
        self._fetch_keys = {}
        self._epoch_spec = self.spec
        if self.injector is None:
            return
        self.injector.begin_epoch(epoch)
        self._apply_crashes(epoch)
        plan = self.injector.plan
        _, bandwidth = plan.multipliers(None, epoch)
        if bandwidth != 1.0:
            self._epoch_spec = self.spec.with_overrides(
                network_bandwidth=self.spec.network_bandwidth * bandwidth)
        for worker in self.alive_workers:
            multiplier, _ = plan.multipliers(worker.worker_id, epoch)
            if multiplier != 1.0:
                self._stage_multipliers[worker.worker_id] = multiplier

    def _retry_overhead(self, part, rpc_messages):
        """Simulated seconds added by flaky-fetch retries for
        ``rpc_messages`` remote requests of worker ``part`` this epoch;
        returns ``(extra_seconds, retries, giveups)``."""
        if (self.injector is None or self.retry is None
                or rpc_messages == 0):
            return 0.0, 0, 0
        if self.injector.fetch_failure_prob(part) <= 0.0:
            return 0.0, 0, 0
        extra = 0.0
        retries = giveups = 0
        outcomes = iter(
            lambda: self.injector.fetch_attempt_fails(part), object())
        for _message in range(rpc_messages):
            key = self._fetch_keys.get(part, 0)
            self._fetch_keys[part] = key + 1
            seconds, attempts, gave_up = self.retry.simulate(
                outcomes, key=part * 1_000_003 + key)
            extra += seconds
            retries += attempts
            giveups += int(gave_up)
        return extra, retries, giveups

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _batch_work(self, worker, subgraph):
        """Meter one sampled batch on ``worker`` and return its
        :class:`BatchWork`."""
        part = worker.worker_id
        feat_bytes = (self.dataset.feature_dim
                      * self.dataset.features.itemsize)

        # Remote sampling requests (the sampled sub-adjacency comes back
        # over the wire) and remote feature fetches, deduplicated per
        # batch.
        traffic = batch_traffic(self.partition, part, subgraph)
        remote_requests = int(traffic.served.sum())
        remote_feat_bytes = len(traffic.remote_inputs) * feat_bytes

        spec = self._epoch_spec
        network_bytes = (remote_feat_bytes
                         + traffic.remote_edges * BYTES_PER_EDGE)
        network_msgs = remote_requests // 64 + (2 if remote_feat_bytes else 0)
        bp = (spec.sample_time(subgraph.total_edges)
              + spec.network_time(network_bytes,
                                  messages=network_msgs))

        stats = BatchStats.from_subgraph(subgraph, self.dataset)
        breakdown = self.transfer.transfer(stats, spec,
                                           cache=worker.cache)
        dt = breakdown.total_seconds
        tier_seconds = breakdown.tier_seconds

        flops = estimate_flops(subgraph, self.dataset.feature_dim,
                               self._hidden_dim, self._num_classes)
        nn = spec.compute_time(flops)

        # Injected faults: flaky remote fetches pay retry timeouts and
        # backoff (batch-preparation time), stragglers stretch every
        # stage of this worker's batch.
        fault_seconds, retries, giveups = self._retry_overhead(
            part, traffic.messages)
        bp += fault_seconds
        multiplier = self._stage_multipliers.get(part, 1.0)
        if multiplier != 1.0:
            bp *= multiplier
            dt *= multiplier
            nn *= multiplier
            if tier_seconds is not None:
                tier_seconds = {tier: seconds * multiplier
                                for tier, seconds in tier_seconds.items()}

        return BatchWork(
            seeds=len(subgraph.seeds),
            sampled_edges=subgraph.total_edges,
            input_vertices=len(subgraph.input_nodes),
            remote_feature_bytes=remote_feat_bytes,
            remote_sample_requests=remote_requests,
            bp_seconds=bp, dt_seconds=dt, nn_seconds=nn,
            retries=retries, giveups=giveups,
            fault_seconds=fault_seconds,
            dt_tier_seconds=tier_seconds)

    def _allreduce_seconds(self):
        """Ring all-reduce of the gradient vector across the *surviving*
        workers (the ring shrinks when a worker crashes)."""
        return ring_allreduce_seconds(self._epoch_spec, self._grad_bytes,
                                      len(self.alive_workers))

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def run_epoch(self, batch_size, rng, epoch):
        """One synchronous epoch; returns :class:`EpochStats`.

        Each worker's seed batches come from :attr:`selector` over the
        worker's own training vertices.  ``epoch`` is the global epoch
        index on the fault clock: a resumed trainer passes the absolute
        epoch so the fault schedule replays at the right positions.
        """
        if batch_size < 1:
            raise TrainingError(
                f"batch_size must be >= 1, got {batch_size}")
        self._begin_epoch_faults(epoch)

        graph = self.dataset.graph
        labels = self.dataset.labels
        features = self.dataset.features
        perf_before = PERF.snapshot()

        per_worker_batches = [
            list(self.selector.batches(worker.train_ids, batch_size, rng))
            if worker.num_train else []
            for worker in self.workers]

        num_steps = max((len(b) for b in per_worker_batches), default=0)
        if num_steps == 0:
            raise TrainingError("epoch with zero batches")

        losses = []
        batches_this_epoch = [0] * len(self.workers)
        for step in range(num_steps):
            active = [(w, per_worker_batches[w.worker_id][step])
                      for w in self.workers
                      if step < len(per_worker_batches[w.worker_id])]
            self.optimizer.zero_grad()
            step_loss = 0.0
            for worker, seeds in active:
                subgraph = self.sampler.sample(graph, seeds, rng)
                worker.log(self._batch_work(worker, subgraph))
                batches_this_epoch[worker.worker_id] += 1
                logits = self.model.forward(
                    subgraph, features[subgraph.input_nodes])
                loss = softmax_cross_entropy(logits,
                                             labels[subgraph.seeds])
                # Average gradients across the step's active workers.
                (loss * (1.0 / len(active))).backward()
                step_loss += loss.item() / len(active)
            self.optimizer.step()
            losses.append(step_loss)

        # Simulated epoch time: slowest worker's pipelined makespan plus
        # the synchronous all-reduce per step.
        makespans = []
        totals = {name: 0 for name, _work_name, _add in _SUMMED}
        tier_seconds = {"hot": 0.0, "warm": 0.0, "cold": 0.0}
        tiered_fetches = False
        for worker, count in zip(self.workers, batches_this_epoch):
            if count == 0:
                continue
            stage_times = worker.epoch_stage_times(count)
            makespans.append(simulate_pipeline(
                stage_times, self.pipeline_mode).makespan)
            recent = worker.work_log[-count:]
            for name, work_name, add in _SUMMED:
                totals[name] += add(getattr(w, work_name) for w in recent)
            for work in recent:
                if work.dt_tier_seconds is not None:
                    tiered_fetches = True
                    for tier in tier_seconds:
                        tier_seconds[tier] += \
                            work.dt_tier_seconds.get(tier, 0.0)
        allreduce = self._allreduce_seconds() * num_steps
        epoch_seconds = max(makespans) + allreduce

        perf = PERF.delta(perf_before)
        if tiered_fetches:
            # Per-tier transfer-seconds and aggregate tier hit rates of
            # this epoch, surfaced through EpochStats.perf so benchmarks
            # and the trainer see the cache's behaviour without holding
            # the cache objects themselves.
            perf["dt_tier_seconds"] = tier_seconds
            perf["cache_tiers"] = self._cache_tier_stats()

        return EpochStats(
            loss=float(np.mean(losses)),
            epoch_seconds=epoch_seconds,
            allreduce_seconds=allreduce,
            num_steps=num_steps,
            batch_size=batch_size,
            alive_workers=len(self.alive_workers),
            dropped_vertices=self._dropped,
            perf=perf, **totals)

    def _cache_tier_stats(self):
        """Aggregate tier hit statistics across the workers' caches
        (cumulative since cache construction)."""
        hot = warm = cold = 0
        for worker in self.workers:
            if worker.cache is not None:
                hot += worker.cache.hot_hits
                warm += worker.cache.warm_hits
                cold += worker.cache.cold_misses
        total = hot + warm + cold
        return {
            "hot_hits": hot, "warm_hits": warm, "cold_misses": cold,
            "hot_hit_rate": hot / total if total else 0.0,
            "warm_hit_rate": warm / total if total else 0.0,
        }
