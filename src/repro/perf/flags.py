"""Process-wide switches that select a real alternative.

The batch-preparation fast paths (fused block assembly, memoized
aggregation operators, the evaluation-subgraph cache) are simply how
the library works; the implementations they replaced live in
``tests/`` as oracles.  What stays switchable is what has two shipped
behaviours: which sparse-kernel backend runs, and whether the runtime
sanitizers are armed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["PerfFlags", "FLAGS", "perf_overrides"]


@dataclass
class PerfFlags:
    """The process-wide switches.

    Attributes
    ----------
    kernel_backend:
        Which sparse-kernel backend :mod:`repro.kernels` dispatches
        aggregations to: ``"auto"`` (first importable accelerated
        backend, reference as the floor), ``"reference"`` or
        ``"scipy"``.  Every backend is bit-identical
        to the reference (the conformance suite pins it), so this
        flag changes wall time, never math.
    sanitize:
        Arm the runtime sanitizers (``repro.analysis.sanitize``):
        NaN/Inf scans on activations and gradients, CSR structure
        checks at graph/block construction, and shape/dtype return
        contracts.  Defaults *off*: the checks are
        behaviour-preserving but not free, so they run in the test
        suite, under ``repro train --sanitize`` / ``repro bench
        --sanitize``, and in the CI smokes rather than in benchmarked
        hot loops.
    """

    kernel_backend: str = "auto"
    sanitize: bool = False


#: Process-wide flag set read by the hot paths.
FLAGS = PerfFlags()


@contextmanager
def perf_overrides(**overrides):
    """Temporarily override :data:`FLAGS` fields within a ``with``.

    >>> with perf_overrides(kernel_backend="reference"):
    ...     ...  # pinned numpy kernels
    """
    saved = {}
    for name, value in overrides.items():
        if not hasattr(FLAGS, name):
            raise AttributeError(f"unknown perf flag {name!r}")
        saved[name] = getattr(FLAGS, name)
        # Boolean flags coerce; string-valued flags (kernel_backend)
        # pass through unchanged.
        setattr(FLAGS, name,
                bool(value) if isinstance(saved[name], bool) else value)
    try:
        yield FLAGS
    finally:
        for name, value in saved.items():
            setattr(FLAGS, name, value)
