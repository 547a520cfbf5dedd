"""CPU→GPU data transfer methods (§7.2, §7.3.1).

Three methods, all consuming the same :class:`BatchStats` counts:

* **Extract-Load** — the explicit path: gather the batch's (uncached)
  feature rows into a contiguous staging buffer on the CPU, then
  ``cudaMemcpy`` staging + topology to the GPU at full PCIe bandwidth.
* **Zero-Copy** — the implicit UVA path: the GPU reads exactly the
  needed feature rows straight from host memory; no extraction, but the
  fine-grained reads run below peak PCIe bandwidth.
* **Hybrid** — HyTGraph-style: features live in 256 KB blocks; dense
  blocks (active fraction >= threshold) are DMA'd whole (no gather
  needed for a full contiguous block), sparse blocks are zero-copied.

The paper's §7.3.1 finding — hybrid does not help GNN training because
sampled vertices are too scattered for dense blocks to exist (especially
under caching) — emerges directly from the block activity statistics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..errors import TransferError
from .blocks import block_activity
from .tiered import TieredCache

__all__ = ["BatchStats", "TransferBreakdown", "TransferMethod",
           "ExtractLoad", "ZeroCopy", "HybridTransfer", "make_transfer",
           "TOPOLOGY_BYTES_PER_EDGE"]

# A subgraph edge shipped to the GPU: two 4-byte local ids.
TOPOLOGY_BYTES_PER_EDGE = 8


@dataclass
class BatchStats:
    """Counts describing one mini-batch's transfer needs."""

    input_nodes: np.ndarray        # global ids whose features are needed
    feature_bytes_per_vertex: int
    subgraph_edges: int            # topology size shipped alongside
    num_vertices_total: int        # |V| of the dataset (for block layout)

    @classmethod
    def from_subgraph(cls, subgraph, dataset):
        return cls(input_nodes=subgraph.input_nodes,
                   feature_bytes_per_vertex=(dataset.feature_dim
                                             * dataset.features.itemsize),
                   subgraph_edges=subgraph.total_edges,
                   num_vertices_total=dataset.num_vertices)

    @property
    def feature_bytes(self):
        return len(self.input_nodes) * self.feature_bytes_per_vertex

    @property
    def topology_bytes(self):
        return self.subgraph_edges * TOPOLOGY_BYTES_PER_EDGE


@dataclass
class TransferBreakdown:
    """Seconds and bytes of one batch's CPU→GPU movement.

    With a disk-backed :class:`~repro.transfer.tiered.TieredCache` in
    front of the features, ``disk_seconds`` carries the cold rows'
    storage fetch (charged on top of the host + PCIe path) and
    ``tier_seconds`` / ``tier_bytes`` split the feature movement per
    tier (topology bytes are not attributed to a tier).  Host-backed
    caches (and no cache) leave them zero/empty.
    """

    extract_seconds: float
    load_seconds: float
    bytes_moved: int
    disk_seconds: float = 0.0
    tier_seconds: dict = None
    tier_bytes: dict = None

    @property
    def total_seconds(self):
        return self.extract_seconds + self.load_seconds \
            + self.disk_seconds


class TransferMethod(abc.ABC):
    """Base class: compute a :class:`TransferBreakdown` for a batch.

    ``cache`` is a :class:`~repro.transfer.tiered.TieredCache` or
    ``None`` (nothing resident, features in host RAM).  Rows are billed
    by the tier that holds them: hot rows are free, warm rows come from
    pinned host memory, cold rows from the cache's backing store — host
    RAM, or disk, which adds the storage fetch.
    """

    name = "abstract"

    def transfer(self, stats, spec, cache=None):
        """Time one batch; ``cache`` filters and tiers feature rows."""
        if cache is None:
            cache = TieredCache(0, 0, 0, backing="host")
        return self._transfer(stats, spec,
                              cache.lookup(stats.input_nodes),
                              cache.backing == "disk")

    @abc.abstractmethod
    def _transfer(self, stats, spec, lookup, disk_backed):
        """Bill the batch whose rows split per tier as ``lookup``;
        ``disk_backed`` says whether cold rows pay the disk-only
        terms (exactly ``0.0`` otherwise)."""

    @staticmethod
    def _tier_split(breakdown, disk_backed, warm_bytes, cold_bytes,
                    warm_own, cold_own, pcie_shared):
        """Attach per-tier seconds/bytes to a disk-backed
        ``breakdown``: each tier's own cost plus a bytes-proportional
        share of the shared PCIe crossing."""
        if not disk_backed:
            return breakdown
        moved = warm_bytes + cold_bytes
        warm_share = pcie_shared * warm_bytes / moved if moved else 0.0
        cold_share = pcie_shared - warm_share if moved else 0.0
        breakdown.tier_seconds = {"hot": 0.0,
                                  "warm": warm_own + warm_share,
                                  "cold": cold_own + cold_share}
        breakdown.tier_bytes = {"warm": warm_bytes, "cold": cold_bytes}
        return breakdown


class ExtractLoad(TransferMethod):
    """Explicit extract-then-DMA transfer."""

    name = "extract-load"

    def _transfer(self, stats, spec, lookup, disk_backed):
        row = stats.feature_bytes_per_vertex
        warm_bytes = lookup.num_warm * row
        cold_bytes = lookup.num_cold * row
        # Warm rows are staged out of the pinned cache, cold rows are
        # gathered from pageable pages (disk-fetched first when the
        # backing store is disk); both then ride the same DMA alongside
        # the topology.
        extract = (spec.host_cache_time(warm_bytes)
                   + spec.gather_time(cold_bytes))
        disk = spec.disk_time(cold_bytes) if disk_backed else 0.0
        payload = warm_bytes + cold_bytes + stats.topology_bytes
        load = spec.pcie_time(payload, transfers=2)
        pcie_rows = load - spec.pcie_time(stats.topology_bytes,
                                          transfers=2) \
            if warm_bytes + cold_bytes else 0.0
        return self._tier_split(
            TransferBreakdown(extract, load, payload, disk_seconds=disk),
            disk_backed, warm_bytes, cold_bytes,
            warm_own=spec.host_cache_time(warm_bytes),
            cold_own=disk + spec.gather_time(cold_bytes),
            pcie_shared=pcie_rows)


class ZeroCopy(TransferMethod):
    """UVA zero-copy transfer: no extraction, reduced-efficiency reads."""

    name = "zero-copy"

    def _transfer(self, stats, spec, lookup, disk_backed):
        row = stats.feature_bytes_per_vertex
        warm_bytes = lookup.num_warm * row
        cold_bytes = lookup.num_cold * row
        # UVA zero-copy reads host memory in place, so warm rows and
        # host-resident cold rows need no staging at all.  Disk-resident
        # cold rows must land in host memory first (disk fetch +
        # gather) before the GPU can read them.
        disk = spec.disk_time(cold_bytes) if disk_backed else 0.0
        extract = spec.gather_time(cold_bytes) if disk_backed else 0.0
        zc_rows = spec.zero_copy_time(warm_bytes + cold_bytes)
        # Topology is still shipped explicitly (it is contiguous anyway).
        load = zc_rows + spec.pcie_time(stats.topology_bytes,
                                        transfers=1)
        return self._tier_split(
            TransferBreakdown(extract, load,
                              warm_bytes + cold_bytes
                              + stats.topology_bytes,
                              disk_seconds=disk),
            disk_backed, warm_bytes, cold_bytes,
            warm_own=0.0,
            cold_own=disk + extract,
            pcie_shared=zc_rows)


class HybridTransfer(TransferMethod):
    """HyTGraph-style per-block decision between DMA and zero-copy.

    Parameters
    ----------
    threshold:
        Active-vertex fraction above which a 256 KB feature block is
        transferred whole by DMA.
    block_bytes:
        Feature block granularity (the paper uses 256 KB units).
    """

    name = "hybrid"

    def __init__(self, threshold=0.5, block_bytes=262144):
        if not 0.0 < threshold <= 1.0:
            raise TransferError(
                f"threshold must be in (0, 1], got {threshold}")
        self.threshold = float(threshold)
        self.block_bytes = int(block_bytes)

    def _transfer(self, stats, spec, lookup, disk_backed):
        # The per-block dense/sparse decision applies to every row that
        # is not GPU-resident; disk-resident cold rows additionally pay
        # the storage fetch before they are host-readable at all.
        row = stats.feature_bytes_per_vertex
        warm_bytes = lookup.num_warm * row
        cold_bytes = lookup.num_cold * row
        breakdown = self._block_breakdown(lookup.misses, stats, spec)
        disk = spec.disk_time(cold_bytes) if disk_backed else 0.0
        breakdown.disk_seconds = disk
        # The block machinery does not preserve which rows came from
        # which tier, so the host+PCIe cost is split by bytes.
        return self._tier_split(breakdown, disk_backed, warm_bytes,
                                cold_bytes, warm_own=0.0, cold_own=disk,
                                pcie_shared=breakdown.load_seconds)

    def _block_breakdown(self, misses, stats, spec):
        activity = block_activity(misses, stats.num_vertices_total,
                                  stats.feature_bytes_per_vertex,
                                  block_bytes=self.block_bytes)
        dense = activity.fractions >= self.threshold
        vertices_per_block = activity.vertices_per_block
        # Dense blocks: whole contiguous block DMA'd, no gather.
        dense_bytes = int(dense.sum()) * vertices_per_block \
            * stats.feature_bytes_per_vertex
        # Sparse blocks: only the active rows, via zero-copy.
        sparse_active = int(activity.active_counts[~dense].sum())
        sparse_bytes = sparse_active * stats.feature_bytes_per_vertex
        load = (spec.pcie_time(dense_bytes + stats.topology_bytes,
                               transfers=1 + int(dense.sum() > 0))
                + spec.zero_copy_time(sparse_bytes))
        return TransferBreakdown(
            0.0, load, dense_bytes + sparse_bytes + stats.topology_bytes)


def make_transfer(name, **kwargs):
    """Factory: ``extract-load``, ``zero-copy``, or ``hybrid``."""
    methods = {"extract-load": ExtractLoad, "zero-copy": ZeroCopy,
               "hybrid": HybridTransfer}
    key = name.lower()
    if key not in methods:
        raise TransferError(
            f"unknown transfer method {name!r}; known: {sorted(methods)}")
    return methods[key](**kwargs)
