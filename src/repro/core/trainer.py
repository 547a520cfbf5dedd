"""The high-level trainer: one call runs the full simulated distributed
training pipeline of Figure 1.

``Trainer(dataset, config).run()``:

1. partitions the graph (data partitioning step, timed);
2. builds per-worker GPU caches if configured;
3. trains epoch by epoch with the synchronous mini-batch engine
   (batch selection by ``config.batch_selection``, batch preparation,
   data transferring, NN computation — all metered) or, when
   ``config.sampler`` is the :class:`~repro.dist.FullGraph` policy,
   with the full-graph engine (one update per epoch, boundary exchange
   metered);
4. evaluates validation accuracy each epoch (real numpy inference) and
   finally reports test accuracy at the best-validation checkpoint.

Robustness (``repro.faults``): ``run`` optionally takes a
:class:`~repro.faults.checkpoint.Checkpointer` (epoch-boundary
checkpoints: model + optimizer + rng state + curve, crash-safe and
checksummed) and a fault plan/injector replayed by the engine.  A run
killed by an injected ``halt`` (or a real crash) and restarted with
``resume=True`` continues from the last checkpoint and reproduces the
uninterrupted run's loss/accuracy curve bit-identically: mini-batch
formation consumes the restored rng exactly where the original left
off, and evaluation rngs are reseeded per epoch anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dist import FullBatchEngine, FullGraph, SyncEngine
from ..errors import CheckpointError, TrainingError
from ..nn import Adam, build_model, no_grad
from ..perf import PERF, EvalSubgraphCache, ordered_sum, wall_clock
from .config import TrainingConfig, make_cache
from .convergence import TrainingCurve

__all__ = ["Trainer", "TrainingResult", "evaluate_model"]


def evaluate_model(model, dataset, vertex_ids, sampler, rng,
                   batch_size=1024, cache=None, cache_token=0):
    """Sample-based inference accuracy over ``vertex_ids``.

    With ``cache`` (an :class:`~repro.perf.EvalSubgraphCache`), the
    sampled mini-batch subgraphs are stored under a key derived from
    the sampler, vertex set, batch size, and ``cache_token`` (the
    caller's rng seed) and replayed on later identical calls — valid
    precisely because such callers reseed ``rng`` identically, so
    re-sampling would reproduce byte-identical subgraphs anyway.
    """
    vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
    if len(vertex_ids) == 0:
        return 0.0
    prepared = None
    if cache is not None:
        key = cache.make_key(sampler, vertex_ids, batch_size, cache_token)
        prepared = cache.get(key)
    replay = prepared is not None
    if not replay:
        prepared = []
        for start in range(0, len(vertex_ids), batch_size):
            batch = vertex_ids[start:start + batch_size]
            prepared.append(sampler.sample(dataset.graph, batch, rng))
        if cache is not None:
            cache.put(key, prepared)

    correct = 0
    with no_grad():
        for subgraph in prepared:
            # Offline accuracy eval sits outside the transfer cost
            # model on purpose: nothing here is billed or benched.
            rows = subgraph.input_nodes
            logits = model.forward(
                subgraph, dataset.features[rows])  # repro: noqa[ARC003]
            predictions = logits.data.argmax(axis=-1)
            correct += int(
                (predictions == dataset.labels[subgraph.seeds]).sum())
    return correct / len(vertex_ids)


@dataclass
class TrainingResult:
    """Everything a benchmark needs from one training run."""

    curve: TrainingCurve
    test_accuracy: float
    partition_seconds: float
    partition_method: str
    epoch_stats: list = field(repr=False, default_factory=list)
    config: TrainingConfig = None
    # Measured (not simulated) hot-path counters of this run, from
    # ``repro.perf.PERF`` — kernel FLOPs, transpose and eval-subgraph
    # cache hits/misses.
    perf: dict = field(repr=False, default=None)
    # The trained model at the best-validation checkpoint — what the
    # serving layer (``repro.serve``) answers queries against.
    model: object = field(repr=False, default=None)

    def __post_init__(self):
        # Same normalization as EpochStats.perf: downstream `.get()`
        # calls must never see None.
        if self.perf is None:
            self.perf = {}

    @property
    def best_val_accuracy(self):
        return self.curve.best_accuracy

    @property
    def total_train_seconds(self):
        """Total simulated training time (partitioning excluded, as in
        the paper's Figure 6 which reports them separately)."""
        return float(np.sum(self.curve.epoch_seconds))

    @property
    def mean_epoch_seconds(self):
        return self.curve.mean_epoch_seconds

    @property
    def total_wall_seconds(self):
        """Actually measured (not simulated) training wall time; Figure 6
        compares this against the measured partitioning time."""
        return float(np.sum(self.curve.wall_seconds))

    def partitioning_time_share(self):
        """Figure 6's quantity: partitioning time as a share of
        partitioning + training, both wall-clock measured."""
        total = self.partition_seconds + self.total_wall_seconds
        return self.partition_seconds / total if total else 0.0

    def step_breakdown(self):
        """Average Figure 2-style step shares across epochs.

        Data partitioning is excluded, exactly as in the paper ("its
        runtime is ignorable" — a one-off preprocessing step); shares are
        over the simulated batch-preparation / data-transferring / NN
        times.
        """
        if not self.epoch_stats:
            raise TrainingError("run() has not been called")
        bp = ordered_sum(s.bp_seconds for s in self.epoch_stats)
        dt = ordered_sum(s.dt_seconds for s in self.epoch_stats)
        nn = ordered_sum(s.nn_seconds + s.allreduce_seconds
                         for s in self.epoch_stats)
        total = bp + dt + nn
        return {
            "batch_preparation": bp / total,
            "data_transferring": dt / total,
            "nn_computation": nn / total,
        }

    def involved_totals(self):
        """Total vertices/edges involved per epoch (Table 6's columns),
        averaged across epochs."""
        vertices = np.mean([s.involved_vertices for s in self.epoch_stats])
        edges = np.mean([s.involved_edges for s in self.epoch_stats])
        return {"vertices": float(vertices), "edges": float(edges)}


class Trainer:
    """Runs one full configuration on one dataset."""

    def __init__(self, dataset, config=None):
        self.dataset = dataset
        self.config = config or TrainingConfig()
        if dataset.num_vertices < self.config.num_workers:
            raise TrainingError("more workers than vertices")

    def _build_engine(self, injector=None, retry=None):
        config = self.config
        dataset = self.dataset

        sampler = config.build_sampler()
        full_graph = isinstance(sampler, FullGraph)
        if full_graph:
            self._check_full_graph(injector)

        partitioner = config.build_partitioner()
        partition = partitioner.partition(
            dataset.graph, config.num_workers, split=dataset.split,
            rng=config.rng(salt=1))

        if config.replication_budget > 0:
            from ..partition.replication import partition_aware_replication
            partition = partition_aware_replication(
                dataset, partition, sampler, config.replication_budget,
                rng=config.rng(salt=42))
        model = build_model(config.model, dataset.feature_dim,
                            dataset.num_classes,
                            num_layers=config.num_layers,
                            hidden_dim=config.hidden_dim,
                            rng=config.rng(salt=2),
                            dropout=config.dropout)
        optimizer = Adam(model.parameters(), lr=config.learning_rate)
        if full_graph:
            engine = FullBatchEngine(dataset, partition, model, optimizer,
                                     config.spec, sampler.staleness)
            return engine, partition, sampler, model, optimizer

        caches = []
        train_ids = dataset.train_ids
        owners = partition.assignment[train_ids]
        for part in range(config.num_workers):
            caches.append(make_cache(
                config.cache_policy, dataset, config.cache_ratio,
                sampler=sampler, seeds=train_ids[owners == part],
                rng=config.rng(salt=3 + part),
                warm_ratio=config.cache_warm_ratio))

        engine = SyncEngine(
            dataset, partition, sampler, model, optimizer,
            spec=config.spec, transfer=config.build_transfer(),
            caches=caches, pipeline_mode=config.pipeline,
            injector=injector, retry=retry,
            crash_policy=config.crash_policy,
            selector=config.build_selector(dataset.graph))
        return engine, partition, sampler, model, optimizer

    def _check_full_graph(self, injector):
        """Reject the steps full-graph training does not have: there
        are no batches to select, every feature is resident (no cache,
        no replication) and there is no fault clock."""
        config = self.config
        for name, value in (("batch_selection",
                             config.batch_selection != "random"),
                            ("cache_policy", config.cache_policy),
                            ("cache_ratio", config.cache_ratio),
                            ("cache_warm_ratio", config.cache_warm_ratio),
                            ("replication_budget", config.replication_budget),
                            ("faults", injector)):
            if value is not None and value != 0:
                raise TrainingError(
                    f"{name}: full-graph training has no batch "
                    f"selection, feature cache, replication or fault "
                    f"replay")

    def _fingerprint(self):
        """Identity of (dataset, architecture, seed) a checkpoint must
        match to be resumable under this trainer."""
        config = self.config
        model = config.model if isinstance(config.model, str) \
            else type(config.model).__name__
        fingerprint = {
            "dataset": self.dataset.name,
            "num_vertices": int(self.dataset.num_vertices),
            "model": model,
            "hidden_dim": config.hidden_dim,
            "num_layers": config.num_layers,
            "num_workers": config.num_workers,
            "seed": config.seed,
        }
        policy = config.build_sampler()
        if isinstance(policy, FullGraph):
            # Stale stores resume only into the same refresh cadence.
            fingerprint["full_graph_staleness"] = policy.staleness
        return fingerprint

    @staticmethod
    def _build_injector(faults):
        """Normalize ``faults`` (None / plan / spec string / injector)
        into a :class:`~repro.faults.plan.FaultInjector` or None."""
        if faults is None:
            return None
        from ..faults import FaultInjector, FaultPlan
        if isinstance(faults, FaultInjector):
            return faults
        if isinstance(faults, (FaultPlan, str)):
            return FaultInjector(faults)
        raise TrainingError(
            f"faults must be a FaultPlan, spec string, or "
            f"FaultInjector, got {type(faults).__name__}")

    def run(self, checkpointer=None, resume=False, faults=None,
            retry=None):
        """Train to completion and return a :class:`TrainingResult`.

        Parameters
        ----------
        checkpointer:
            Optional :class:`~repro.faults.checkpoint.Checkpointer`;
            training state is saved after every ``checkpointer.every``-th
            epoch (and the final one).
        resume:
            Continue from ``checkpointer``'s file when it exists (a
            missing file starts from scratch; a corrupt or mismatched
            one raises :class:`~repro.errors.CheckpointError`).
        faults:
            Optional fault schedule replayed by the engine: a
            :class:`~repro.faults.plan.FaultPlan`, a spec string (see
            :meth:`FaultPlan.parse`), or a prebuilt injector.
        retry:
            :class:`~repro.faults.retry.RetryPolicy` for flaky remote
            fetches (engine default applies when faults are given).
        """
        config = self.config
        injector = self._build_injector(faults)
        engine, partition, sampler, model, optimizer = \
            self._build_engine(injector=injector, retry=retry)
        full_graph = isinstance(engine, FullBatchEngine)
        schedule = config.build_schedule()
        rng = config.rng(salt=100)
        eval_rng_seed = config.seed * 7_777_777 + 13
        # The eval rng is reseeded identically every epoch, so the
        # sampled validation subgraphs are byte-identical across epochs
        # — prepare them once and replay (keyed on sampler/batch
        # size/seed, so any change invalidates).
        eval_cache = EvalSubgraphCache()
        if full_graph:
            def evaluate(vertex_ids, _seed):
                return engine.evaluate(vertex_ids)
        else:
            def evaluate(vertex_ids, seed):
                # evaluate_model is looked up at call time, so a probe
                # patched onto this module sees every call.
                return evaluate_model(
                    model, self.dataset, vertex_ids, sampler,
                    np.random.default_rng(seed), cache=eval_cache,
                    cache_token=seed)
        perf_before = PERF.snapshot()

        curve = TrainingCurve()
        epoch_stats = []
        best_val = -1.0
        best_state = None
        stale = 0
        start_epoch = 0

        if resume and checkpointer is not None and checkpointer.exists():
            # load_latest returns the newest slot that verifies: the
            # previous save when the newest was torn mid-write.
            state = checkpointer.load_latest()
            if state.get("fingerprint") != self._fingerprint():
                raise CheckpointError(
                    f"checkpoint at {checkpointer.path} belongs to a "
                    f"different configuration "
                    f"({state.get('fingerprint')}); refusing to resume")
            model.load_state_dict(state["model"])
            model.load_rng_state(state["model_rng"])
            optimizer.load_state_dict(state["optimizer"])
            rng.bit_generator.state = state["rng_state"]
            schedule = state["schedule"]
            curve = state["curve"]
            epoch_stats = state["epoch_stats"]
            best_val = state["best_val"]
            best_state = state["best_state"]
            stale = state["stale"]
            start_epoch = state["epoch"]
            if full_graph:
                engine.stale_stores = state["stale_stores"]
            if injector is not None:
                # The halt that killed the previous incarnation already
                # happened; it must not re-fire on the replayed epochs
                # (which may start before the halt epoch when the
                # checkpoint cadence is sparse).
                injector.disarm_for_resume(start_epoch)

        for epoch in range(start_epoch, config.epochs):
            batch_size = schedule.size(epoch)
            wall_start = wall_clock()
            stats = engine.run_epoch(batch_size, rng, epoch=epoch)
            wall = wall_clock() - wall_start
            epoch_stats.append(stats)

            if epoch % config.eval_every == 0 or epoch == config.epochs - 1:
                val_acc = evaluate(self.dataset.val_ids, eval_rng_seed)
            else:
                val_acc = curve.val_accuracies[-1] if curve.num_epochs \
                    else 0.0
            schedule.observe(epoch, val_acc)
            curve.record(val_acc, stats.loss, stats.epoch_seconds, wall,
                         stats.batch_size)

            if val_acc > best_val:
                best_val = val_acc
                best_state = model.state_dict()
                stale = 0
                stopping = False
            else:
                stale += 1
                stopping = (config.early_stop_patience
                            and stale >= config.early_stop_patience)

            if checkpointer is not None and (
                    checkpointer.due(epoch) or stopping
                    or epoch == config.epochs - 1):
                payload = {
                    "fingerprint": self._fingerprint(),
                    "epoch": epoch + 1,
                    "model": model.state_dict(),
                    "model_rng": model.rng_state(),
                    "optimizer": optimizer.state_dict(),
                    "rng_state": rng.bit_generator.state,
                    "schedule": schedule,
                    "curve": curve,
                    "epoch_stats": epoch_stats,
                    "best_val": best_val,
                    "best_state": best_state,
                    "stale": stale,
                }
                if full_graph:
                    payload["stale_stores"] = engine.stale_stores
                checkpointer.save(payload)
            if stopping:
                break

        if best_state is not None:
            model.load_state_dict(best_state)
        test_acc = evaluate(self.dataset.test_ids, eval_rng_seed + 1)
        return TrainingResult(
            curve=curve, test_accuracy=test_acc,
            partition_seconds=partition.seconds,
            partition_method=partition.method,
            epoch_stats=epoch_stats, config=config,
            perf=PERF.delta(perf_before), model=model)
