"""Exception hierarchy for the repro library.

All errors raised on purpose by the library derive from :class:`ReproError`
so callers can catch library failures with a single except clause.

The robustness layer adds two members: :class:`FaultError` for failures
*injected* by the fault-simulation subsystem (``repro.faults``) — a
scheduled process halt, a crashed worker that cannot be worked around,
an exhausted retry budget configured to be fatal — and
:class:`CheckpointError` for checkpoint files that are missing when
required, corrupt (checksum mismatch), or were written by an
incompatible configuration.
"""

__all__ = ["ReproError", "GraphError", "PartitionError",
           "SamplingError", "TrainingError", "KernelError",
           "TransferError", "DatasetError", "ServingError",
           "FleetError", "FaultError",
           "CheckpointError", "CheckpointIntegrityError",
           "SanitizerError"]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised when a graph is structurally invalid or an operation on a
    graph receives inconsistent inputs (bad CSR arrays, out-of-range
    vertex ids, mismatched array lengths)."""


class PartitionError(ReproError):
    """Raised when a partitioning request cannot be satisfied (e.g. more
    partitions than vertices, or a constraint matrix with the wrong
    shape)."""


class SamplingError(ReproError):
    """Raised for invalid sampling configurations (negative fanout,
    sampling rate outside (0, 1], empty seed sets where forbidden)."""


class TrainingError(ReproError):
    """Raised when a training configuration is inconsistent (e.g. model
    dimensions not matching the dataset, zero batches)."""


class KernelError(ReproError):
    """Raised for invalid sparse-kernel calls: unknown op/reduce names,
    adjacency/operand shape mismatches, or edge values wider than the
    features."""


class TransferError(ReproError):
    """Raised for invalid transfer/cache configurations (negative
    bandwidth, cache larger than feature store, unknown method name)."""


class DatasetError(ReproError):
    """Raised when a dataset name is unknown or its construction
    parameters are inconsistent."""


class ServingError(ReproError):
    """Raised for invalid online-serving configurations (unknown
    execution mode, a model the layer-wise precompute path cannot
    handle, malformed batching policies)."""


class FleetError(ServingError):
    """Raised for invalid fleet configurations (``repro.fleet``): a
    replica count that does not match the partition, an unroutable
    request because every replica is down, or malformed routing/
    autoscaling parameters."""


class FaultError(ReproError):
    """Raised by the fault-injection subsystem (``repro.faults``) when a
    scheduled fault takes effect and cannot be absorbed: an injected
    process halt, every worker crashed, or an invalid fault plan."""


class CheckpointError(ReproError):
    """Raised when a training checkpoint is missing where one is
    required, fails its integrity check (truncated file, checksum
    mismatch), or belongs to a different training configuration."""


class CheckpointIntegrityError(CheckpointError):
    """Raised when a checkpoint slot exists but cannot be trusted: bad
    magic, a corrupt header or one of another version, a truncated
    payload, or a SHA-256 that disagrees with it (a save torn by a
    crash, or bit rot).  Distinct from a merely *missing* checkpoint:
    :meth:`repro.faults.Checkpointer.load_latest` falls back to the
    other slot's previous save, and raises this only when neither slot
    verifies."""


class SanitizerError(ReproError):
    """Raised by the runtime sanitizers (``repro.perf.sanitize``)
    when a numeric invariant is violated with ``FLAGS.sanitize`` on:
    NaN/Inf in activations or gradients, a structurally malformed CSR
    array, or a broken shape/dtype contract."""
