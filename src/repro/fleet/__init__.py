"""Sharded multi-replica serving with partition-aware routing.

The fleet tier is the serving engine (:mod:`repro.serve`) scaled
out — a :class:`~repro.serve.engine.ServeEngine` is its 1-replica
configuration: a graph partition from
:mod:`repro.partition` assigns every vertex an owning shard, each
shard is served by one :class:`~repro.fleet.replica.ReplicaServer`
(its own micro-batch queue, cache hierarchy, and seeded sampling
stream), and a :class:`~repro.fleet.router.Router` dispatches each
request to the replica owning its seed vertex — spilling to the
least-loaded survivor (remote-fetch penalty included) when the owner
is saturated, crashed, or drained away by the queue-depth
:class:`~repro.fleet.router.Autoscaler`.

Rows a replica does not own are billed over the cluster network by
its shard's :class:`~repro.serve.executor.BatchExecutor`, so the
paper's
partition-quality story (edge cut → communication volume) becomes a
serving-latency story: better partitions → higher routing locality →
fewer remote rows → flatter tails.  Every run reports one
:class:`~repro.serve.metrics.ServeReport` carrying one
:class:`~repro.fleet.metrics.ReplicaReport` per replica.  In
``precomputed`` mode an N-replica fleet's answers are bit-identical to
a 1-replica fleet's for the same trace (row-wise evaluation makes
answers batching-invariant), which ``repro bench fleet`` asserts as its
exact-match invariant.

:mod:`repro.fleet.resilience` layers availability on top: phi-accrual
failure detection, k-replicated shard ownership, circuit breakers,
hedged requests, retry budgets, and checkpointed cache recovery — all
off by default and certified under composable fault schedules by
``repro bench fleet-chaos``.
"""

from .engine import FleetEngine
from .metrics import ReplicaReport
from .replica import ReplicaServer
from .resilience import (BreakerPolicy, CircuitBreaker, DetectorPolicy,
                         FailureDetector, HedgePolicy, ReplicaRecovery,
                         ResiliencePolicy)
from .router import Autoscaler, AutoscalePolicy, Router, RoutingPolicy
from .shards import ShardMap

__all__ = [
    "FleetEngine", "ReplicaReport", "ReplicaServer",
    "ShardMap", "Router", "RoutingPolicy",
    "Autoscaler", "AutoscalePolicy",
    "DetectorPolicy", "FailureDetector", "BreakerPolicy",
    "CircuitBreaker", "HedgePolicy", "ResiliencePolicy",
    "ReplicaRecovery",
]

from .bench import run_fleet_bench  # noqa: E402  (engine types first)
from .chaos import run_fleet_chaos_bench  # noqa: E402

__all__ += ["run_fleet_bench", "run_fleet_chaos_bench"]
