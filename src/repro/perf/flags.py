"""Process-wide switches that select a real alternative.

The batch-preparation fast paths (fused block assembly, memoized
aggregation operators, the evaluation-subgraph cache) and the compiled
sparse kernels are simply how the library works; the implementations
they replaced live in ``tests/`` as oracles.  What stays switchable is
the one thing with two shipped behaviours: whether the runtime
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
    sanitize:
        Arm the runtime sanitizers (``repro.perf.sanitize``):
        NaN/Inf scans on activations and gradients, CSR structure
        checks at graph/block construction, and shape/dtype return
        contracts.  Defaults *off*: the checks are
        behaviour-preserving but not free, so they run in the test
        suite, under ``repro train --sanitize`` / ``repro bench
        --sanitize``, and in the CI smokes rather than in benchmarked
        hot loops.
    """

    sanitize: bool = False


#: Process-wide flag set read by the hot paths.
FLAGS = PerfFlags()


@contextmanager
def perf_overrides(**overrides):
    """Temporarily override :data:`FLAGS` fields within a ``with``.

    >>> with perf_overrides(sanitize=True):
    ...     ...  # sanitizers armed
    """
    saved = {}
    for name, value in overrides.items():
        if not hasattr(FLAGS, name):
            raise AttributeError(f"unknown perf flag {name!r}")
        saved[name] = getattr(FLAGS, name)
        setattr(FLAGS, name, bool(value))
    try:
        yield FLAGS
    finally:
        for name, value in saved.items():
            setattr(FLAGS, name, value)
