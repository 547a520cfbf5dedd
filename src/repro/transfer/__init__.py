"""Data transferring: hardware model, methods, caching, pipelining."""

from .blocks import (BlockActivity, active_block_ratio, block_activity,
                     threshold_sweep)
from .hardware import DEFAULT_SPEC, HardwareSpec, estimate_flops
from .methods import (TOPOLOGY_BYTES_PER_EDGE, BatchStats, ExtractLoad,
                      HybridTransfer, TransferBreakdown, TransferMethod,
                      ZeroCopy, make_transfer)
from .pipeline import (PIPELINE_MODES, PipelineResult, pipeline_groups,
                       simulate_pipeline)
from .tiered import (BACKING_STORES, DYNAMIC_TIER_POLICIES, TIER_POLICIES,
                     TierBill, TieredCache, TierLookup, backing_for,
                     make_tiered_cache, presample_frequencies,
                     select_lowest)
from .platform import (PLATFORM_NAMES, NoTransfer, Platform, cpu_cluster,
                       gpu_cluster, multi_gpu)
from .trace import epoch_trace_events, worker_trace, write_epoch_trace

__all__ = [
    "HardwareSpec", "DEFAULT_SPEC", "estimate_flops",
    "BatchStats", "TransferBreakdown", "TransferMethod", "ExtractLoad",
    "ZeroCopy", "HybridTransfer", "make_transfer",
    "TOPOLOGY_BYTES_PER_EDGE",
    "TieredCache", "TierLookup", "TierBill", "make_tiered_cache",
    "backing_for", "presample_frequencies", "select_lowest",
    "TIER_POLICIES", "DYNAMIC_TIER_POLICIES", "BACKING_STORES",
    "BlockActivity", "block_activity", "active_block_ratio",
    "threshold_sweep",
    "PipelineResult", "simulate_pipeline", "PIPELINE_MODES",
    "pipeline_groups",
    "Platform", "cpu_cluster", "multi_gpu", "gpu_cluster", "NoTransfer",
    "PLATFORM_NAMES",
    "epoch_trace_events", "worker_trace", "write_epoch_trace",
]
