"""Feature flags for the batch-preparation fast paths.

Every optimisation in the perf layer is behaviour-preserving (it changes
wall time, not math), so each one can be toggled off to fall back to the
straightforward reference implementation.  The toggles exist for two
reasons: the hot-path benchmark measures old-vs-new on the same build,
and the equivalence tests prove bit-for-bit identical training results
with the fast paths on and off.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["PerfFlags", "FLAGS", "perf_overrides"]


@dataclass
class PerfFlags:
    """Which fast paths are active.

    Attributes
    ----------
    fused_block_assembly:
        Use the single-pass id-map localization in
        :func:`~repro.sampling.block.build_block` instead of the
        sort-based reference path.
    memoize_aggregation:
        Cache each block's normalized aggregation CSR (and GAT edge
        lists) on the block, keyed by ``self_loops``.
    eval_subgraph_cache:
        Let the trainer sample the fixed-seed evaluation mini-batches
        once and replay them across epochs.
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
        contracts.  Unlike the fast-path toggles above this one
        defaults *off*: the checks are behaviour-preserving but not
        free, so they run in the test suite, under ``repro train
        --sanitize``, and in the CI chaos/serving smokes rather than
        in benchmarked hot loops.
    """

    fused_block_assembly: bool = True
    memoize_aggregation: bool = True
    eval_subgraph_cache: bool = True
    kernel_backend: str = "auto"
    sanitize: bool = False


#: Process-wide flag set read by the hot paths.
FLAGS = PerfFlags()


@contextmanager
def perf_overrides(**overrides):
    """Temporarily override :data:`FLAGS` fields within a ``with``.

    >>> with perf_overrides(fused_block_assembly=False):
    ...     ...  # reference block assembly
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
