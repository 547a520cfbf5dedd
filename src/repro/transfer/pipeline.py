"""Task pipelining across CPU / PCIe / GPU (§7.3.2, Figures 13 & 14).

One batch passes through three stages on three resources:

1. **BP** — batch preparation (sampling) on the CPU;
2. **DT** — data transfer over PCIe;
3. **NN** — forward/backward on the GPU.

Without pipelining the stages run strictly sequentially across batches.
Pipelining lets stage ``s`` of batch ``b`` overlap stage ``s'`` of batch
``b+1`` — bounded by the classic pipeline recurrence

    finish[b][g] = max(finish[b][g-1], finish[b-1][g]) + time[b][g]

where ``g`` ranges over *resource groups*: stages fused into one group
still serialize with each other.  Figure 14's ablation is exactly a
choice of grouping: ``No pipe`` = one group, ``Pipeline BP`` = BP in its
own group, ``Pipeline BP and DT`` = all three stages in separate groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TransferError

__all__ = ["PipelineResult", "simulate_pipeline", "PIPELINE_MODES",
           "pipeline_groups"]

PIPELINE_MODES = ("none", "bp", "bp+dt")


def pipeline_groups(mode):
    """Stage grouping for a named pipeline mode.

    ``none``  -> [[0, 1, 2]]      (fully sequential)
    ``bp``    -> [[0], [1, 2]]    (sampling overlaps transfer+compute)
    ``bp+dt`` -> [[0], [1], [2]]  (full 3-stage pipeline)
    """
    groups = {"none": [[0, 1, 2]], "bp": [[0], [1, 2]],
              "bp+dt": [[0], [1], [2]]}
    if mode not in groups:
        raise TransferError(
            f"unknown pipeline mode {mode!r}; known: {PIPELINE_MODES}")
    return groups[mode]


@dataclass
class PipelineResult:
    """Outcome of simulating one epoch's batches through the pipeline."""

    makespan: float                # wall time of the epoch
    stage_busy: np.ndarray         # total busy seconds per resource group
    num_batches: int


def simulate_pipeline(stage_times, mode="bp+dt"):
    """Simulate an epoch of batches through the (partially) pipelined
    BP → DT → NN stages.

    Parameters
    ----------
    stage_times:
        Sequence of ``(bp, dt, nn)`` second-triples, one per batch.
    mode:
        One of :data:`PIPELINE_MODES`.

    Returns
    -------
    :class:`PipelineResult`
    """
    times = np.asarray(stage_times, dtype=np.float64)
    if times.ndim != 2 or times.shape[1] != 3:
        raise TransferError("stage_times must be an (n, 3) array-like")
    if np.any(times < 0):
        raise TransferError("stage times must be non-negative")
    groups = pipeline_groups(mode)
    num_batches = times.shape[0]
    if num_batches == 0:
        return PipelineResult(0.0, np.zeros(len(groups)), 0)

    # Per-batch time of each resource group = sum of its fused stages.
    group_times = np.stack(
        [times[:, group].sum(axis=1) for group in groups], axis=1)

    finish = np.zeros((num_batches, len(groups)))
    for b in range(num_batches):
        for g in range(len(groups)):
            ready = finish[b][g - 1] if g > 0 else 0.0
            free = finish[b - 1][g] if b > 0 else 0.0
            finish[b][g] = max(ready, free) + group_times[b, g]
    return PipelineResult(makespan=float(finish[-1, -1]),
                          stage_busy=group_times.sum(axis=0),
                          num_batches=num_batches)
