"""The perf layer: hot-path instrumentation, scratch-array pooling,
process-wide switches, and prepared-batch caches.

Everything here is about *real* wall time (the python hot paths), not
the simulated cluster seconds of the cost model.  The layer counts
what the benchmark of record reads (:data:`PERF`), makes the hot
paths fast without changing their math (:class:`Workspace`,
:class:`EvalSubgraphCache`, :func:`sorted_unique`,
:class:`WeightedChoice`, :func:`choice_sets`), and holds the one
switch with a shipped alternative (:data:`FLAGS`: the runtime
sanitizers of :mod:`~repro.perf.sanitize`).
The slow paths the fast ones replaced are test oracles
(``tests/sampling/_block_oracle.py``), not flags.
"""

from .choice import choice_sets
from .evalcache import EvalSubgraphCache
from .flags import FLAGS, PerfFlags, perf_overrides
from .profiler import (PERF, StageProfiler, ordered_sum, percentile,
                       summarize, wall_clock)
from .unique import sorted_unique
from .weighted import WeightedChoice
from .workspace import Workspace, get_workspace

__all__ = [
    "PERF", "StageProfiler", "ordered_sum", "percentile", "summarize",
    "wall_clock",
    "FLAGS", "PerfFlags", "perf_overrides",
    "Workspace", "get_workspace",
    "EvalSubgraphCache",
    "sorted_unique", "WeightedChoice", "choice_sets",
]
