"""The hardware cost model (substitute for the paper's physical testbed).

The paper measures seconds on a 4-node Aliyun cluster (NVIDIA T4, PCIe
3.0 x16, 10 Gbps Ethernet, 40 vCPU).  We have none of that, so every
experiment in this library produces *counts* (bytes moved, edges
sampled/aggregated, FLOPs) through the real data-management code paths,
and :class:`HardwareSpec` converts counts into simulated seconds at the
very end.

Default constants are calibrated so the step shares of Figure 2
reproduce: data transferring dominates GNN training (~70%, split between
feature extraction and loading roughly 3:4), batch preparation is a
minor share, and NN computation dominates *DNN* training.  Absolute
seconds are not meaningful — only ratios are, which is also all the
paper's transfer-optimization figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import TransferError

__all__ = ["HardwareSpec", "DEFAULT_SPEC", "estimate_flops"]


@dataclass(frozen=True)
class HardwareSpec:
    """Throughput/latency constants of the simulated training node.

    All bandwidths in bytes/second, latencies in seconds, rates in
    operations/second.
    """

    # PCIe 3.0 x16 between host and GPU.
    pcie_bandwidth: float = 16e9
    pcie_latency: float = 10e-6
    # Fraction of PCIe peak achieved by fine-grained zero-copy (UVA)
    # reads.  Raw random requests run far below peak, but orchestrated
    # coalesced accesses (PyTorch-Direct style) approach it — and unlike
    # the explicit path they skip staging entirely.
    zero_copy_efficiency: float = 0.95
    # Multithreaded scattered-row gather on the 40-vCPU host (feature
    # extraction into a contiguous staging buffer).
    cpu_gather_bandwidth: float = 21e9
    # Neighbor sampling throughput (sampled edges per second).
    cpu_sample_rate: float = 160e6
    # 10 Gbps Ethernet between nodes.
    network_bandwidth: float = 1.25e9
    network_latency: float = 50e-6
    # Warm tier: page-locked (pinned) host memory holding staged
    # feature rows.  Reads out of the pinned region skip the page-fault
    # path, so they run faster than the scattered-row gather from
    # pageable memory (`cpu_gather_bandwidth`).
    host_cache_bandwidth: float = 32e9
    # Cold tier: NVMe-class local storage (or a remote feature store)
    # behind the host.  Sequential-ish batched reads of feature rows;
    # the latency term charges the request round-trip once per batch.
    disk_bandwidth: float = 0.5e9
    disk_latency: float = 100e-6
    # T4: ~8.1 TFLOPS fp32 peak; the GEMM-dominated layers of a
    # 128-hidden GNN run near peak, calibrated so NN computation is the
    # minor share of GNN training that Figure 2 reports.
    gpu_flops: float = 8.1e12
    gpu_efficiency: float = 0.85

    def __post_init__(self):
        positive = ("pcie_bandwidth", "cpu_gather_bandwidth",
                    "cpu_sample_rate", "network_bandwidth", "gpu_flops",
                    "host_cache_bandwidth", "disk_bandwidth")
        for name in positive:
            if getattr(self, name) <= 0:
                raise TransferError(f"{name} must be positive")
        for name in ("pcie_latency", "network_latency", "disk_latency"):
            if getattr(self, name) < 0:
                raise TransferError(f"{name} must be non-negative")
        if not 0 < self.zero_copy_efficiency <= 1:
            raise TransferError("zero_copy_efficiency must be in (0, 1]")
        if not 0 < self.gpu_efficiency <= 1:
            raise TransferError("gpu_efficiency must be in (0, 1]")

    # ------------------------------------------------------------------
    # Count -> seconds conversions
    # ------------------------------------------------------------------
    def pcie_time(self, num_bytes, transfers=1):
        """Explicit DMA transfer of contiguous ``num_bytes``."""
        return num_bytes / self.pcie_bandwidth + transfers * self.pcie_latency

    def zero_copy_time(self, num_bytes):
        """Implicit UVA reads of ``num_bytes`` at reduced efficiency."""
        return num_bytes / (self.pcie_bandwidth * self.zero_copy_efficiency)

    def gather_time(self, num_bytes):
        """CPU-side scattered feature extraction into staging memory."""
        return num_bytes / self.cpu_gather_bandwidth

    def host_cache_time(self, num_bytes):
        """Warm-tier read: scattered rows out of the pinned host cache
        (no page faults, so faster than the pageable gather)."""
        return num_bytes / self.host_cache_bandwidth

    def disk_time(self, num_bytes, reads=1):
        """Cold-tier fetch: ``num_bytes`` of feature rows from local
        NVMe / remote feature store, ``reads`` batched requests."""
        if num_bytes == 0:
            return 0.0
        return num_bytes / self.disk_bandwidth + reads * self.disk_latency

    def sample_time(self, num_edges):
        """CPU-side neighbor sampling of ``num_edges`` sampled edges."""
        return num_edges / self.cpu_sample_rate

    def network_time(self, num_bytes, messages=1):
        """Inter-node transfer over the cluster network."""
        return (num_bytes / self.network_bandwidth
                + messages * self.network_latency)

    def compute_time(self, flops):
        """GPU NN computation of ``flops`` floating point operations."""
        return flops / (self.gpu_flops * self.gpu_efficiency)

    def with_overrides(self, **kwargs):
        """A copy of the spec with some constants replaced."""
        return replace(self, **kwargs)


DEFAULT_SPEC = HardwareSpec()


def estimate_flops(subgraph, feature_dim, hidden_dim, num_classes,
                   backward_factor=3.0):
    """Training FLOPs of one mini-batch on a 2-phase GNN layer stack.

    Per block: sparse aggregation (2 FLOPs per edge per input channel)
    plus the dense transform (2 * dst * in * out).  The classifier head
    runs on the seeds.  ``backward_factor`` folds in backward propagation
    (~2x forward) on top of the forward pass.
    """
    dims = [feature_dim] + [hidden_dim] * len(subgraph.blocks)
    forward = 0.0
    for i, block in enumerate(subgraph.blocks):
        forward += 2.0 * block.num_edges * dims[i]
        forward += 2.0 * block.num_dst * dims[i] * dims[i + 1]
    forward += 2.0 * len(subgraph.seeds) * hidden_dim * num_classes
    return forward * backward_factor
