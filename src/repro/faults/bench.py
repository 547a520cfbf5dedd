"""The fault-recovery benchmark: one reusable chaos sweep.

Trains a healthy baseline, then re-runs the *same* seeded configuration
under a set of fault scenarios (straggler, flaky fetches, degraded
link, permanent worker crash under both crash policies) and reports the
simulated epoch-time overhead, retry/giveup counters, and accuracy
deltas of each.  Two properties are *checked*, not just reported:

``resume_exact``
    A run killed by an injected ``halt`` and resumed from its last
    epoch-boundary checkpoint must reproduce the uninterrupted run's
    loss/accuracy/epoch-time curve bit-identically.
``plan_deterministic``
    Re-running a scenario with the same :class:`~repro.faults.plan.
    FaultPlan` seed must reproduce the identical fault timeline: same
    retry counts, same simulated epoch times, same losses.

Registered as ``faults`` in :mod:`repro.bench` (``repro bench faults``
writes ``BENCH_faults.json``).
"""

from __future__ import annotations

import os
import tempfile

from ..core import Trainer, format_table
from ..core.config import TrainingConfig
from ..errors import FaultError
from ..graph import load_dataset
from .checkpoint import Checkpointer
from .plan import FaultPlan

__all__ = ["run_fault_bench", "default_scenarios", "tables", "checks",
           "QUICK_OVERRIDES"]

#: Parameter overrides for smoke runs (CI, ``--quick``).
QUICK_OVERRIDES = dict(scale=0.12, epochs=5, workers=4, halt_epoch=2)


def default_scenarios(workers, epochs):
    """The standard chaos sweep: ``(name, spec, crash_policy)`` rows.

    Fault epochs scale with the run length so every scenario is active
    for a meaningful share of training even in ``--quick`` runs.
    """
    mid = max(1, epochs // 3)
    span = max(1, epochs - mid)
    last = workers - 1
    return [
        ("straggler", f"straggler@{mid}+{span}:w0:x4", "redistribute"),
        ("flaky", f"flaky@{mid}+{span}:w0:p0.3", "redistribute"),
        ("slowlink", f"slowlink@{mid}+{span}:x0.25", "redistribute"),
        ("crash-redistribute", f"crash@{mid}:w{last}", "redistribute"),
        ("crash-drop", f"crash@{mid}:w{last}", "drop"),
    ]


def _curve_summary(result):
    """JSON-friendly per-run numbers the report keeps for every run."""
    curve = result.curve
    stats = result.epoch_stats
    return {
        "epochs_run": curve.num_epochs,
        "mean_epoch_seconds": curve.mean_epoch_seconds,
        "total_train_seconds": result.total_train_seconds,
        "best_val_accuracy": result.best_val_accuracy,
        "test_accuracy": result.test_accuracy,
        "losses": [float(x) for x in curve.losses],
        "epoch_seconds": [float(x) for x in curve.epoch_seconds],
        "retries": int(sum(s.retries for s in stats)),
        "giveups": int(sum(s.giveups for s in stats)),
        "fault_seconds": float(sum(s.fault_seconds for s in stats)),
        "alive_workers": int(stats[-1].alive_workers) if stats else 0,
        "dropped_vertices": int(stats[-1].dropped_vertices)
        if stats else 0,
    }


def _curves_match(a, b):
    """Bit-identity of two runs' loss/accuracy/epoch-time series."""
    return (a.curve.losses == b.curve.losses
            and a.curve.val_accuracies == b.curve.val_accuracies
            and a.curve.epoch_seconds == b.curve.epoch_seconds)


def run_fault_bench(dataset="ogb-arxiv", scale=0.2, model="gcn",
                    epochs=6, workers=4, halt_epoch=2, seed=0,
                    scenarios=None, checkpoint_dir=None, quick=False):
    """Run the full chaos sweep; returns a JSON-serializable dict.

    ``scenarios`` overrides :func:`default_scenarios` with
    ``(name, fault spec string, crash_policy)`` triples; ``quick=True``
    applies :data:`QUICK_OVERRIDES` for a fast smoke.  Checkpoints for
    the halt/resume check go to ``checkpoint_dir`` (default: a
    temporary directory removed afterwards).
    """
    if quick:
        scale = QUICK_OVERRIDES["scale"]
        epochs = QUICK_OVERRIDES["epochs"]
        workers = QUICK_OVERRIDES["workers"]
        halt_epoch = QUICK_OVERRIDES["halt_epoch"]
    if epochs < 1 or workers < 1:
        raise FaultError(
            f"epochs and workers must be >= 1, got {epochs} and "
            f"{workers}")
    if not 0 < halt_epoch < epochs:
        raise FaultError(
            f"halt epoch must be in (0, epochs), got {halt_epoch}")

    data = load_dataset(dataset, scale=scale)

    def config(crash_policy="redistribute"):
        return TrainingConfig(
            model=model, epochs=epochs, num_workers=workers,
            batch_size=256, fanout=(10, 10), seed=seed,
            early_stop_patience=0, crash_policy=crash_policy)

    healthy = Trainer(data, config()).run()
    baseline = _curve_summary(healthy)

    rows = []
    for name, spec, crash_policy in (
            scenarios or default_scenarios(workers, epochs)):
        plan = FaultPlan.parse(spec, seed=seed)
        result = Trainer(data, config(crash_policy)).run(faults=plan)
        row = _curve_summary(result)
        row.update({
            "scenario": name,
            "plan": plan.describe(),
            "crash_policy": crash_policy,
            "epoch_time_overhead":
                row["mean_epoch_seconds"] / baseline["mean_epoch_seconds"]
                - 1.0,
            "accuracy_delta":
                row["test_accuracy"] - baseline["test_accuracy"],
            # Non-destructive faults only stretch the simulated clock;
            # the arithmetic — and therefore the loss curve — must be
            # untouched.  Crashes change batch composition, so their
            # curves legitimately diverge.
            "losses_match_healthy": row["losses"] == baseline["losses"],
        })
        rows.append(row)

    # ------------------------------------------------------------------
    # Checked property 1: halt at `halt_epoch`, resume, bit-match.
    # ------------------------------------------------------------------
    owns_dir = checkpoint_dir is None
    if owns_dir:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        checkpoint_dir = tmp.name
    halt_plan = FaultPlan.parse(f"halt@{halt_epoch}", seed=seed)
    ckpt = Checkpointer(
        os.path.join(checkpoint_dir, "chaos.ckpt"), every=1)
    halted = False
    try:
        Trainer(data, config()).run(checkpointer=ckpt, faults=halt_plan)
    except FaultError:
        halted = True
    resumed = Trainer(data, config()).run(
        checkpointer=ckpt, resume=True, faults=halt_plan)
    resume_exact = halted and _curves_match(resumed, healthy) \
        and resumed.test_accuracy == healthy.test_accuracy
    if owns_dir:
        tmp.cleanup()

    # ------------------------------------------------------------------
    # Checked property 2: same plan seed => identical fault timeline.
    # ------------------------------------------------------------------
    _, flaky_spec, _ = (scenarios or default_scenarios(workers, epochs))[1]
    replay = [Trainer(data, config()).run(
        faults=FaultPlan.parse(flaky_spec, seed=seed)) for _ in range(2)]
    plan_deterministic = (
        _curves_match(replay[0], replay[1])
        and [s.retries for s in replay[0].epoch_stats]
        == [s.retries for s in replay[1].epoch_stats]
        and [s.giveups for s in replay[0].epoch_stats]
        == [s.giveups for s in replay[1].epoch_stats])

    return {
        "dataset": data.name,
        "scale": scale,
        "model": model,
        "epochs": epochs,
        "workers": workers,
        "seed": seed,
        "halt_epoch": halt_epoch,
        "baseline": baseline,
        "scenarios": rows,
        "halt_fired": halted,
        "resume_exact": bool(resume_exact),
        "plan_deterministic": bool(plan_deterministic),
    }


def tables(report):
    """What each fault scenario cost, one row per scenario."""
    rows = []
    for row in report["scenarios"]:
        rows.append({
            "scenario": row["scenario"],
            "plan": row["plan"],
            "epoch overhead": f"{100 * row['epoch_time_overhead']:+.1f}%",
            "retries": row["retries"],
            "giveups": row["giveups"],
            "alive": row["alive_workers"],
            "dropped": row["dropped_vertices"],
            "acc delta": round(row["accuracy_delta"], 3),
        })
    return format_table(
        rows, title=f"Fault-recovery benchmark ({report['dataset']}, "
                    f"{report['workers']} workers, "
                    f"{report['epochs']} epochs)")


def checks(report):
    """Exit rule: the two recovery invariants."""
    return {
        f"halt@{report['halt_epoch']} fired, resumed curve "
        f"bit-identical": report["halt_fired"] and report["resume_exact"],
        "fault timeline deterministic under fixed seed":
            report["plan_deterministic"],
    }
