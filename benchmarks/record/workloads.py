"""The six workloads of the benchmark of record.

Each workload is a batch job driven by one closed-loop client: the next
call starts when the previous one returns.  The serving traces are
open-loop Poisson arrivals on the *simulated* clock, but the engines
consume them as fast as the host allows, so the timings measure the
program, not the arrival schedule.

A workload splits into four steps so the harness can time exactly the
region the issue names:

``setup``    inputs generated from the seed: dataset, partition, model,
             trace (→ ``setup_s``);
``prepare``  fresh per-repeat collaborators (engine, schedule, scratch
             directory) — untimed, so repeats do not share warm caches;
``run``      the timed region, one library call;
``check``    output validation and the end-to-end readings — untimed.

Sizes are the largest that fit the driver's budget (26 runs per
workload inside 57 minutes, set-up repeated five times per run); the
README records the measured repeat lengths.  ``scale`` shrinks every
size for ``--selftest``.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.batching.schedule import FixedBatchSize
from repro.core import Trainer
from repro.core.config import TrainingConfig, make_partitioner
from repro.fleet.chaos import crash_storm
from repro.fleet.engine import FleetEngine
from repro.fleet.resilience import ReplicaRecovery, ResiliencePolicy
from repro.fleet.router import RoutingPolicy
from repro.graph import load_dataset
from repro.partition.quality import balance_ratio, edge_cut
from repro.partition.workload import BYTES_PER_EDGE
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import ServeEngine
from repro.serve.precompute import LayerwiseEmbeddings
from repro.serve.requests import LoadGenerator
from repro.transfer.hardware import DEFAULT_SPEC

__all__ = ["WORKLOADS", "Outcome", "CLOCK", "SCRATCH_ROOT"]

#: The clock every timed region is read with: CPU seconds of this
#: (single-threaded) process.  The workloads never sleep, so on a quiet
#: machine this equals the wall clock; on a shared VM it leaves out the
#: time the hypervisor gave to someone else, which arrives in
#: multi-second bursts no wall-clock median survives (README,
#: "Steadiness").  Wall seconds are recorded next to it.
CLOCK = time.process_time

#: Scratch files (fleet-chaos snapshots) stay inside the checkout.
SCRATCH_ROOT = Path(__file__).resolve().parents[2] / ".benchmarks" \
    / "record"

#: Simulated seconds within which a fleet answer counts as available
#: (the chaos certification's SLO).
AVAILABILITY_SLO = 0.005


@dataclass
class Outcome:
    """What one checked repeat reports."""

    work: float                    # items behind throughput_per_s
    sim_time_ms: float
    attempted: int
    failed: int
    digest: str
    # Seconds to the stated quality target when that is earlier than
    # the end of the timed region (training); None = the whole region.
    time_to_target_s: float = None
    counts: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def _sha256(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _dataset(tracer, name, scale, seed):
    with tracer.span("graph.load_dataset"):
        return load_dataset(name, scale=scale, seed=seed, cache=False)


def _seeded_partition(name, data, num_parts, seed):
    return make_partitioner(name).partition(
        data.graph, num_parts, split=data.split,
        rng=np.random.default_rng(seed))


class Workload:
    """The four steps; only fleet-chaos has anything to clean up."""

    def cleanup(self, job):
        pass


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
class PrebuiltPartitioner:
    """Hands ``Trainer`` the partition computed during set-up, so the
    timed region starts after the data-partitioning step."""

    def __init__(self, result):
        self.result = result

    def partition(self, graph, num_parts, split=None, rng=None):
        return self.result


class TimestampedBatchSize(FixedBatchSize):
    """A fixed batch size that notes when each epoch's validation
    accuracy arrived — the benchmark's only window into the training
    loop, through the schedule's public ``observe`` hook."""

    def __init__(self, batch_size, clock):
        super().__init__(batch_size)
        self.clock = clock
        self.marks = []

    def observe(self, epoch, val_accuracy):
        self.marks.append((self.clock(), float(val_accuracy)))


def crossing(marks, started, target):
    """Distance from ``started`` to the point where validation accuracy
    reaches ``target``, reading the accuracy curve linearly between
    epoch ends (Fig. 7's reading); ``marks`` are ``(position,
    accuracy)`` per epoch, positions in seconds or in epochs.  ``None``
    if it never does.

    The crossing is interpolated rather than snapped to the epoch end:
    the crossing epoch moves by one between seeds, and a whole epoch is
    a larger step than the regression bound.
    """
    before, before_acc = started, 0.0
    for at, accuracy in marks:
        if accuracy >= target:
            share = (target - before_acc) / (accuracy - before_acc) \
                if accuracy > before_acc else 1.0
            return before + share * (at - before) - started
        before, before_acc = at, accuracy
    return None


class TrainWorkload(Workload):
    """``target`` is the stated validation accuracy every run must
    reach.  With ``time_to_accuracy`` the workload's ``time_to_target_s``
    is the time to that accuracy; without, it is the whole schedule —
    for models whose crossing epoch is too seed-dependent to hold inside
    a regression bound (README, "Steadiness") — and the crossing is
    still recorded, in epochs, as ``core.epochs_to_target``."""

    def __init__(self, name, dataset, dataset_scale, model,
                 partitioner, cache_policy, cache_ratio, epochs, target,
                 time_to_accuracy):
        self.name = name
        self.dataset, self.dataset_scale = dataset, dataset_scale
        self.model, self.partitioner = model, partitioner
        self.cache_policy, self.cache_ratio = cache_policy, cache_ratio
        self.epochs, self.target = epochs, target
        self.time_to_accuracy = time_to_accuracy

    def setup(self, seed, scale, tracer):
        data = _dataset(tracer, self.dataset,
                        self.dataset_scale * scale, seed)
        partition = _seeded_partition(self.partitioner, data, 4, seed)
        # Smoke sizes do not converge; below full size there is no
        # accuracy target and the whole schedule is timed.
        target = self.target if scale >= 1.0 else None
        return {"data": data, "partition": partition, "seed": seed,
                "target": target}

    def prepare(self, state):
        schedule = TimestampedBatchSize(512, CLOCK)
        config = TrainingConfig(
            model=self.model, fanout=(25, 10), batch_size=schedule,
            num_workers=4,
            partitioner=PrebuiltPartitioner(state["partition"]),
            cache_policy=self.cache_policy,
            cache_ratio=self.cache_ratio, epochs=self.epochs,
            eval_every=1, seed=state["seed"])
        return {"trainer": Trainer(state["data"], config),
                "schedule": schedule}

    def run(self, job):
        return job["trainer"].run()

    def check(self, state, job, result, started):
        marks = job["schedule"].marks
        losses = np.asarray(result.curve.losses, dtype=np.float64)
        accuracies = np.asarray(result.curve.val_accuracies,
                                dtype=np.float64)
        steps = [stats.num_steps for stats in result.epoch_stats]
        failed = sum(n for n, loss in zip(steps, losses)
                     if not np.isfinite(loss))
        reached = epochs_needed = None
        if state["target"] is not None:
            epochs_needed = crossing(
                list(enumerate(accuracies, start=1)), 0, state["target"])
            if epochs_needed is None:
                failed += 1
            elif self.time_to_accuracy:
                reached = crossing(marks, started, state["target"])
        seeds = len(losses) * len(state["data"].train_ids)
        return Outcome(
            work=seeds, time_to_target_s=reached,
            sim_time_ms=1e3 * result.mean_epoch_seconds,
            attempted=sum(steps) + 1, failed=failed,
            digest=_sha256(losses, accuracies,
                           np.float64(result.test_accuracy)),
            counts={"core.epochs_to_target": epochs_needed or 0.0},
            notes={"best_val_accuracy": result.best_val_accuracy,
                   "test_accuracy": result.test_accuracy,
                   "target": state["target"]})


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class PartitionWorkload(Workload):
    name = "partition-suite"
    methods = ("hash", "metis-v", "metis-ve", "metis-vet", "stream-v",
               "stream-b")
    parts = (4, 8)
    #: Largest tolerated max/mean vertex load (METIS allows ~1.1).
    balance_limit = 1.5

    def setup(self, seed, scale, tracer):
        return {"data": _dataset(tracer, "lj-large", 0.5 * scale, seed),
                "seed": seed}

    def prepare(self, state):
        return {"plan": [(name, k, make_partitioner(name))
                         for k in self.parts for name in self.methods],
                "data": state["data"], "seed": state["seed"]}

    def run(self, job):
        data = job["data"]
        return [partitioner.partition(
                    data.graph, k, split=data.split,
                    rng=np.random.default_rng(job["seed"]))
                for _name, k, partitioner in job["plan"]]

    def check(self, state, job, results, started):
        graph = state["data"].graph
        failed = 0
        sim_seconds = 0.0
        worst_balance = 0.0
        cuts = {}
        for (name, k, _p), result in zip(job["plan"], results):
            assignment = result.assignment
            balance = balance_ratio(assignment, k)
            covered = len(assignment) == graph.num_vertices
            in_range = covered and assignment.min() >= 0 \
                and assignment.max() < k
            if not (in_range and len(np.unique(assignment)) == k
                    and balance <= self.balance_limit):
                failed += 1
                continue
            cut = edge_cut(graph, assignment)
            cuts[f"{name}/k{k}"] = cut / max(graph.num_edges, 1)
            worst_balance = max(worst_balance, balance)
            # The modelled cost a partition implies: shipping every cut
            # edge once over the simulated network.
            sim_seconds += DEFAULT_SPEC.network_time(
                cut * BYTES_PER_EDGE)
        vet = [v for key, v in sorted(cuts.items())
               if key.startswith("metis-vet/")]
        return Outcome(
            work=len(results) * graph.num_vertices,
            sim_time_ms=1e3 * sim_seconds,
            attempted=len(results), failed=failed,
            digest=_sha256(*[r.assignment for r in results]),
            counts={"partition.failed": failed,
                    "partition.edge_cut_share_metis_vet":
                        float(np.mean(vet)) if vet else 0.0,
                    "partition.balance_ratio_max": worst_balance},
            notes={"edge_cut_share": cuts})


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def _trained_model(data, model, seed):
    """A briefly trained model to serve (accuracy is irrelevant to the
    serving path's cost; the weights only need to be deterministic)."""
    return Trainer(data, TrainingConfig(
        model=model, epochs=2, num_workers=2, batch_size=256,
        fanout=(10, 10), partitioner="hash", seed=seed)).run().model


def _answers(responses):
    ids = np.array([r.request.request_id for r in responses],
                   dtype=np.int64)
    predictions = np.array([r.prediction for r in responses],
                           dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    return ids[order], predictions[order]


class ServeWorkload(Workload):
    name = "serve-sampled"
    requests = 6000

    def setup(self, seed, scale, tracer):
        data = _dataset(tracer, "ogb-arxiv", scale, seed)
        model = _trained_model(data, "graphsage", seed)
        trace = LoadGenerator(
            data.test_ids, rate=2000.0,
            num_requests=max(64, int(self.requests * scale)),
            seed=seed, skew=0.8).generate()
        return {"data": data, "model": model, "trace": trace,
                "seed": seed}

    def prepare(self, state):
        return {"engine": ServeEngine(
                    state["data"], state["model"], mode="sampled",
                    policy=BatchPolicy(max_batch_size=8,
                                       max_wait=0.0005),
                    fanout=(10, 10), cache_policy="lru",
                    cache_ratio=0.1, seed=state["seed"]),
                "trace": state["trace"]}

    def run(self, job):
        return job["engine"].run(job["trace"])

    def check(self, state, job, report, started):
        offered = len(state["trace"])
        ids, predictions = _answers(report.responses)
        duplicates = len(ids) - len(np.unique(ids))
        unaccounted = abs(offered - (report.completed + report.rejected
                                     + report.shed))
        failed = report.rejected + report.shed + duplicates \
            + unaccounted
        return Outcome(
            work=offered,
            sim_time_ms=1e3 * report.latency_p99,
            attempted=offered, failed=failed,
            digest=_sha256(ids, predictions),
            counts={"serve.requests_offered": offered,
                    "serve.requests_failed": failed,
                    "serve.mean_batch_size": report.mean_batch_size,
                    "serve.sim_p50_ms": 1e3 * report.latency_p50,
                    "serve.sim_queue_depth_max":
                        report.queue_depth_max},
            notes={"sim_p99_ms": 1e3 * report.latency_p99,
                   "cache_hit_rate": report.cache_hit_rate})


class FleetWorkload(Workload):
    replicas = 4
    reference_requests = 5000

    def __init__(self, name, requests, rate, chaos):
        self.name = name
        self.requests, self.rate, self.chaos = requests, rate, chaos

    def setup(self, seed, scale, tracer):
        data = _dataset(tracer, "ogb-arxiv", scale, seed)
        model = _trained_model(data, "gcn", seed)
        partition = _seeded_partition("metis-v", data, self.replicas,
                                      seed)
        embeddings = LayerwiseEmbeddings(model, data.graph,
                                         data.features)
        trace = LoadGenerator(
            data.test_ids, rate=self.rate,
            num_requests=max(64, int(self.requests * scale)),
            seed=seed, skew=0.8).generate()
        return {"data": data, "model": model, "partition": partition,
                "embeddings": embeddings, "trace": trace, "seed": seed,
                "serving": dict(
                    mode="precomputed",
                    policy=BatchPolicy(max_batch_size=16,
                                       max_wait=0.0005),
                    max_queue=512, cache_policy="lfu", cache_ratio=0.1,
                    warm_ratio=0.1, seed=seed, embeddings=embeddings)}

    def prepare(self, state):
        extra = {}
        scratch = None
        if self.chaos:
            span = state["trace"][-1].arrival
            SCRATCH_ROOT.mkdir(parents=True, exist_ok=True)
            scratch = tempfile.mkdtemp(prefix="chaos-",
                                       dir=SCRATCH_ROOT)
            extra = dict(
                schedule=crash_storm(self.replicas, start=0.25 * span,
                                     down=0.35 * span, count=2,
                                     spacing=0.05 * span),
                replication=2, resilience=ResiliencePolicy(),
                recovery=ReplicaRecovery(
                    scratch, snapshot_interval=0.1 * span))
        engine = FleetEngine(
            state["data"], state["model"],
            partition=state["partition"],
            routing=RoutingPolicy(spill_threshold=64,
                                  remote_penalty=8.0),
            **state["serving"], **extra)
        return {"engine": engine, "trace": state["trace"],
                "scratch": scratch}

    def run(self, job):
        return job["engine"].run(job["trace"])

    def _reference(self, state):
        """Single-server answers for the head of the trace (computed
        once per process, outside every timed region)."""
        if "reference" not in state:
            head = state["trace"][:self.reference_requests]
            report = ServeEngine(state["data"], state["model"],
                                 **state["serving"]).run(head)
            state["reference"] = _answers(report.responses)
        return state["reference"]

    def check(self, state, job, report, started):
        offered = len(state["trace"])
        ids, predictions = _answers(report.responses)
        duplicates = len(ids) - len(np.unique(ids))
        # Dropped requests are a subset of ``rejected`` in FleetReport.
        unaccounted = abs(offered - (report.completed
                                     + report.rejected))
        ref_ids, ref_predictions = self._reference(state)
        head = np.isin(ids, ref_ids)
        lookup = np.searchsorted(ref_ids, ids[head])
        mismatched = int((ref_predictions[lookup]
                          != predictions[head]).sum())
        failed = report.rejected + duplicates + unaccounted \
            + mismatched
        within = sum(1 for r in report.responses
                     if r.completion - r.request.arrival
                     <= AVAILABILITY_SLO)
        resilience = report.resilience or {}
        hedges = resilience.get("hedges_launched", 0)
        return Outcome(
            work=offered,
            sim_time_ms=1e3 * report.latency_p99,
            attempted=offered, failed=failed,
            digest=_sha256(ids, predictions),
            counts={
                "fleet.requests_offered": offered,
                "fleet.requests_failed": failed,
                "fleet.hedges_fired": hedges,
                "fleet.hedges_won_share":
                    resilience.get("hedges_won", 0) / hedges
                    if hedges else 0.0,
                "fleet.requeued": report.requeued,
                "fleet.spillovers": report.spillovers,
                "fleet.backup_served":
                    resilience.get("backup_routed", 0),
                "fleet.remote_row_share": report.remote_row_fraction,
                "fleet.sim_availability": within / offered},
            notes={"sim_p99_ms": 1e3 * report.latency_p99,
                   "dropped": report.dropped,
                   "reference_mismatches": mismatched,
                   "hot_hit_rate": report.hot_hit_rate,
                   "warm_hit_rate": report.warm_hit_rate})

    def cleanup(self, job):
        if job["scratch"] is not None:
            shutil.rmtree(job["scratch"], ignore_errors=True)


#: The six workloads by name (``metrics.WORKLOADS`` records why each
#: was chosen).
WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        "train-sage", dataset="ogb-products", dataset_scale=2.0,
        model="graphsage", partitioner="metis-ve",
        cache_policy="presample", cache_ratio=0.1, epochs=10,
        target=0.60, time_to_accuracy=True),
    TrainWorkload(
        "train-gat", dataset="ogb-arxiv", dataset_scale=2.0,
        model="gat", partitioner="hash", cache_policy=None,
        cache_ratio=0.0, epochs=8, target=0.40, time_to_accuracy=False),
    PartitionWorkload(),
    ServeWorkload(),
    FleetWorkload("fleet-steady", requests=60000, rate=100000.0,
                  chaos=False),
    FleetWorkload("fleet-chaos", requests=6000, rate=100000.0,
                  chaos=True),
)}
