"""Deployment platforms (Table 1's first axis).

The paper classifies systems by where they run: **CPU-cluster**
(AliGraph, DistDGL, ByteGNN — no accelerator, network-bound),
**Multi-GPU** (DGL, PaGraph, GNNLab — one node, several GPUs over
NVLink/PCIe-P2P), and **GPU-cluster** (P3, DistDGLv2, SALIENT++ — both
a network and a PCIe hop).  A :class:`Platform` captures one such
deployment and produces the pieces the training engine needs: the
hardware spec (with the right compute device and "network" between
workers), the appropriate transfer method, and the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TransferError
from .hardware import HardwareSpec
from .methods import ExtractLoad, TransferBreakdown, TransferMethod, ZeroCopy

__all__ = ["Platform", "cpu_cluster", "multi_gpu", "gpu_cluster",
           "NoTransfer", "PLATFORM_NAMES"]

PLATFORM_NAMES = ("cpu-cluster", "multi-gpu", "gpu-cluster")

# 40-vCPU Skylake node: ~1.3 TFLOPS fp32 peak with AVX-512, GNN kernels
# well below that.
CPU_NODE_FLOPS = 1.3e12
CPU_NODE_EFFICIENCY = 0.35
# NVLink / PCIe-P2P between GPUs of one node.
INTRA_NODE_BANDWIDTH = 50e9
INTRA_NODE_LATENCY = 5e-6


class NoTransfer(TransferMethod):
    """CPU-only training: features never cross a PCIe link."""

    name = "cpu-local"

    def _transfer(self, stats, spec, lookup, disk_backed):
        # A cache slot is meaningless without a device: whichever tier
        # holds a row, nothing moves.
        return TransferBreakdown(0.0, 0.0, 0)


@dataclass(frozen=True)
class Platform:
    """One deployment choice.

    Attributes
    ----------
    name:
        "cpu-cluster" | "multi-gpu" | "gpu-cluster".
    num_workers:
        Machines (or GPUs) participating in training.
    spec:
        Cost model seen by each worker — ``network_*`` fields describe
        whatever link connects workers (Ethernet or NVLink),
        ``gpu_flops``/``gpu_efficiency`` describe the compute device
        (GPU or CPU cores).
    supports_gpu_cache:
        Whether a GPU feature cache makes sense here.
    """

    name: str
    num_workers: int
    spec: HardwareSpec
    supports_gpu_cache: bool

    def default_transfer(self):
        """The transfer method this platform's systems typically use."""
        if self.name == "cpu-cluster":
            return NoTransfer()
        if self.name == "multi-gpu":
            return ZeroCopy()
        return ExtractLoad()

    def __str__(self):
        return f"{self.name} x{self.num_workers}"


def cpu_cluster(num_nodes=4, base=None):
    """A cluster of CPU-only nodes (AliGraph/DistDGL/ByteGNN's world)."""
    if num_nodes < 1:
        raise TransferError("need at least one node")
    base = base or HardwareSpec()
    spec = base.with_overrides(gpu_flops=CPU_NODE_FLOPS,
                               gpu_efficiency=CPU_NODE_EFFICIENCY)
    return Platform("cpu-cluster", num_nodes, spec,
                    supports_gpu_cache=False)


def multi_gpu(num_gpus=4, base=None):
    """Several GPUs in one node: workers talk over NVLink/PCIe-P2P
    instead of Ethernet (PaGraph/GNNLab/Legion's world)."""
    if num_gpus < 1:
        raise TransferError("need at least one GPU")
    base = base or HardwareSpec()
    spec = base.with_overrides(network_bandwidth=INTRA_NODE_BANDWIDTH,
                               network_latency=INTRA_NODE_LATENCY)
    return Platform("multi-gpu", num_gpus, spec, supports_gpu_cache=True)


def gpu_cluster(num_nodes=4, base=None):
    """One GPU per node across an Ethernet cluster (P3/DistDGLv2/
    SALIENT++'s world) — the paper's own testbed."""
    if num_nodes < 1:
        raise TransferError("need at least one node")
    base = base or HardwareSpec()
    return Platform("gpu-cluster", num_nodes, base,
                    supports_gpu_cache=True)
