"""repro.serve — online GNN inference serving.

The training side of this library prepares batches to *learn*; this
package prepares batches to *answer queries*.  The same data-management
steps reappear with serving economics: batch preparation becomes
dynamic micro-batching of user requests under a latency SLO, data
transferring becomes feature/embedding fetches through a GPU cache, and
NN computation can be moved offline entirely via layer-wise
precomputed embedding tables.

Pieces:

* :mod:`~repro.serve.requests` — typed requests/responses and a seeded
  open-loop Poisson :class:`LoadGenerator` (fully reproducible traces);
* :mod:`~repro.serve.batcher` — :class:`MicroBatcher` with
  ``max_batch_size``/``max_wait`` flush policies, bounded-queue
  backpressure (``submit`` returns ``False`` when full) and settled
  queue-depth statistics;
* :mod:`~repro.serve.precompute` — :class:`LayerwiseEmbeddings`,
  bit-identical precomputed vs on-demand full-fanout inference;
* :mod:`~repro.serve.executor` — :class:`BatchExecutor`, the one
  executor: sampling, cache fetches billed by shard, the forward;
* :mod:`~repro.serve.loop` — the one serving event loop:
  :class:`ServeNode` (a :class:`MicroBatcher` with an executor and
  ``dispatch``, where deadline
  shedding and degraded fallback live) and :class:`EventLoop` (one
  simulated clock, one phase-ordered event queue, handlers per event
  kind), which :mod:`repro.fleet` drives;
* :mod:`~repro.serve.engine` — the :class:`ServeEngine` simulated
  single-node server with three execution modes: a 1-replica
  :class:`~repro.fleet.engine.FleetEngine`;
* :mod:`~repro.serve.metrics` — :class:`ServeReport`, the one run
  report: latency/throughput digests of every node's latency column
  (:func:`repro.perf.summarize`) and queue-depth statistics, and the
  :class:`~repro.serve.metrics.ResponseLedger` its answers are kept
  in, one :class:`~repro.serve.metrics.BatchRow` per dispatch;
* :mod:`~repro.serve.bench` — the ``repro bench serve`` sweep, and the
  prelude every serving bench shares.
"""

from .batcher import BatchPolicy, MicroBatcher
from .bench import run_serve_bench
from .engine import ServeEngine
from .executor import SERVE_MODES
from .loop import EventLoop, ServeNode
from .metrics import ServeReport
from .precompute import LayerwiseEmbeddings, OndemandStats
from .requests import InferenceRequest, InferenceResponse, LoadGenerator

__all__ = [
    "InferenceRequest", "InferenceResponse", "LoadGenerator",
    "BatchPolicy", "MicroBatcher",
    "LayerwiseEmbeddings", "OndemandStats",
    "ServeNode", "EventLoop",
    "ServeEngine", "SERVE_MODES", "ServeReport",
    "run_serve_bench",
]
