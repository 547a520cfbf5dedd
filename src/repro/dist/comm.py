"""The gradient all-reduce cost model.

:func:`ring_allreduce_seconds` is the one gradient all-reduce model
both training engines bill.  What a worker asks other machines for
while it prepares a sampled batch is counted once, by
:func:`repro.partition.workload.batch_traffic`, which the mini-batch
engine and Figures 4/5 share.
"""

from __future__ import annotations

__all__ = ["ring_allreduce_seconds"]


def ring_allreduce_seconds(spec, num_bytes, num_machines):
    """Seconds of one ring all-reduce of ``num_bytes`` across
    ``num_machines`` (zero for a single machine): each ships
    ``2 (k - 1) / k`` of the vector in ``2 (k - 1)`` messages."""
    k = num_machines
    if k <= 1:
        return 0.0
    volume = 2.0 * (k - 1) / k * num_bytes
    return spec.network_time(volume, messages=2 * (k - 1))
