"""Inter-machine communication metering.

Every remote interaction in the simulated cluster funnels through a
:class:`CommMeter`: the trainer records who sent how many bytes to whom,
and the meter converts volumes into network seconds using the hardware
spec.  Keeping this a separate ledger makes the communication totals of
Figure 5 and the network component of epoch time auditable.
:func:`ring_allreduce_seconds` is the one gradient all-reduce model
both training engines bill.
"""

from __future__ import annotations

import numpy as np

from ..errors import TransferError

__all__ = ["CommMeter", "ring_allreduce_seconds"]


def ring_allreduce_seconds(spec, num_bytes, num_machines):
    """Seconds of one ring all-reduce of ``num_bytes`` across
    ``num_machines`` (zero for a single machine): each ships
    ``2 (k - 1) / k`` of the vector in ``2 (k - 1)`` messages."""
    k = num_machines
    if k <= 1:
        return 0.0
    volume = 2.0 * (k - 1) / k * num_bytes
    return spec.network_time(volume, messages=2 * (k - 1))


class CommMeter:
    """Byte/message ledger between ``k`` machines."""

    def __init__(self, num_machines):
        if num_machines < 1:
            raise TransferError(
                f"need at least one machine, got {num_machines}")
        self.num_machines = int(num_machines)
        self.bytes_matrix = np.zeros((num_machines, num_machines),
                                     dtype=np.int64)
        self.messages_matrix = np.zeros((num_machines, num_machines),
                                        dtype=np.int64)

    def record(self, src, dst, num_bytes, messages=1):
        """Record ``num_bytes`` flowing from machine ``src`` to ``dst``."""
        if src == dst:
            return  # local movement is free
        self.bytes_matrix[src, dst] += int(num_bytes)
        self.messages_matrix[src, dst] += int(messages)

    def received_bytes(self, machine):
        """Total bytes machine ``machine`` received."""
        return int(self.bytes_matrix[:, machine].sum())

    def sent_bytes(self, machine):
        """Total bytes machine ``machine`` sent."""
        return int(self.bytes_matrix[machine, :].sum())

    @property
    def total_bytes(self):
        return int(self.bytes_matrix.sum())

    @property
    def total_messages(self):
        return int(self.messages_matrix.sum())

    def receive_time(self, machine, spec):
        """Seconds machine ``machine`` spends receiving, per the spec."""
        return spec.network_time(
            self.received_bytes(machine),
            messages=int(self.messages_matrix[:, machine].sum()))

    def imbalance(self):
        """max/mean of per-machine received bytes (1.0 = balanced)."""
        received = self.bytes_matrix.sum(axis=0).astype(np.float64)
        mean = received.mean()
        return float(received.max() / mean) if mean > 0 else 1.0

    def reset(self):
        """Zero all counters."""
        self.bytes_matrix[:] = 0
        self.messages_matrix[:] = 0
