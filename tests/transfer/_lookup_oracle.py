"""The eager-mask tier lookup the all-hot fast exits replaced, verbatim.

Before the change, :meth:`TieredCache.lookup` returned a frozen
dataclass holding three boolean masks built on every call,
:meth:`TieredCache._admit` ran its promote pass even when every row was
already hot, and ``BatchExecutor._bill`` split the cold rows by shard
even when there were none.  ``tests/transfer/test_lookup_oracle.py``
drives a cache and an executor through these and their live twins
step for step.

:func:`adopt` binds ``lookup`` / ``_admit`` to one cache instance and
``_bill`` to one executor instance (instance attributes shadow the
class's methods), so the bodies below run unedited beside the live
code.
"""

from dataclasses import dataclass
from types import MethodType

import numpy as np

from repro.perf import sorted_unique
from repro.transfer.tiered import select_lowest

_COLD, _WARM, _HOT = 0, 1, 2


def adopt(cache=None, executor=None):
    """Give ``cache`` the old ``lookup`` / ``_admit`` and ``executor``
    the old ``_bill``; returns them."""
    if cache is not None:
        cache.lookup = MethodType(lookup, cache)
        cache._admit = MethodType(_admit, cache)
    if executor is not None:
        executor._bill = MethodType(_bill, executor)
    return cache, executor


@dataclass(frozen=True)
class TierLookup:
    """Per-tier split of one batched lookup.

    ``hot_mask``/``warm_mask``/``cold_mask`` are parallel to
    ``vertices`` (duplicates keep their own entry: accounting is per
    request, not per distinct row).
    """

    vertices: np.ndarray
    hot_mask: np.ndarray
    warm_mask: np.ndarray
    cold_mask: np.ndarray
    #: Rows per tier — the mask sums.  :meth:`TieredCache.lookup` has
    #: them from one ``bincount`` of the tier codes; given all three or
    #: none, and without them they are summed here.
    num_hot: int = None
    num_warm: int = None
    num_cold: int = None

    def __post_init__(self):
        if self.num_hot is None:
            for name, mask in (("num_hot", self.hot_mask),
                               ("num_warm", self.warm_mask),
                               ("num_cold", self.cold_mask)):
                object.__setattr__(self, name, int(mask.sum()))

    @property
    def hot_ids(self):
        return self.vertices[self.hot_mask]

    @property
    def warm_ids(self):
        return self.vertices[self.warm_mask]

    @property
    def cold_ids(self):
        return self.vertices[self.cold_mask]

    @property
    def misses(self):
        """Rows not GPU-resident, in request order."""
        return self.vertices[~self.hot_mask]


def lookup(self, vertices):
    """Split a batched request into per-tier hits; dynamic policies
    then promote/admit the touched rows.  Returns a
    :class:`TierLookup`."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if not self.enabled:
        # Zero-cost pass-through: no residency, no score updates.
        none = np.zeros(len(vertices), dtype=bool)
        self.cold_misses += len(vertices)
        return TierLookup(vertices, none, none, ~none,
                          0, 0, len(vertices))

    tiers = self._tier[vertices]
    # One pass over the tier codes (_COLD, _WARM, _HOT = 0, 1, 2)
    # is the three mask sums.
    num_cold, num_warm, num_hot = np.bincount(
        tiers, minlength=3).tolist()
    self.hot_hits += num_hot
    self.warm_hits += num_warm
    self.cold_misses += num_cold

    if self.dynamic and len(vertices):
        self._admit(vertices, tiers, num_warm)
    return TierLookup(vertices, tiers == _HOT, tiers == _WARM,
                      tiers == _COLD, num_hot, num_warm, num_cold)


def _admit(self, vertices, tiers, num_warm):
    """Promote every row touched this call (``tiers``: where each
    was found, ``num_warm`` of them in the warm tier) to the hot
    tier, cascading demotions/evictions down the hierarchy (batched
    array ops throughout)."""
    self._clock += 1
    if self.policy == "lru":
        self._score[vertices] = self._clock
    else:  # lfu: each access counts, duplicates included
        np.add.at(self._score, vertices, 1)

    if self.hot_capacity == 0:
        # Degenerate warm-only configuration: admit the rows not
        # already resident (touched residents keep their slot, with
        # their score freshly bumped above).
        new = sorted_unique(vertices[tiers != _WARM])
        if len(new):
            self._admit_into_warm(new)
        return

    newly_hot = sorted_unique(vertices[tiers != _HOT])
    if len(newly_hot) == 0:
        return
    self._tier[newly_hot] = _HOT
    if num_warm:
        self._warm_ids = self._warm_ids[
            self._tier[self._warm_ids] == _WARM]
    self._hot_ids = np.concatenate([self._hot_ids, newly_hot])

    overflow = len(self._hot_ids) - self.hot_capacity
    if overflow > 0:
        # Rows touched this very call are protected: demote among
        # the rest first, and only spill into the touched set when
        # the batch alone overfills the tier.
        candidates = self._hot_ids[:-len(newly_hot)]
        demote = select_lowest(candidates, self._score[candidates],
                               min(overflow, len(candidates)))
        spill = overflow - len(demote)
        if spill > 0:
            demote = np.concatenate([
                demote, self._shed(newly_hot, spill)])
        self._tier[demote] = _WARM
        self._hot_ids = self._hot_ids[
            self._tier[self._hot_ids] == _HOT]
        self._admit_into_warm(demote)


def _bill(self, cache, lookup, row_bytes):
    """``(total, warm, cold)`` seconds of one lookup: the cache's
    tier bill with the cold rows split by shard — local cold rows
    take the backing-store path, remote ones the network path (one
    message per distinct owning shard).  PCIe is shared by bytes
    over everything moved, ordered so a fetch with no remote row
    reproduces :meth:`TieredCache.bill` bit for bit."""
    spec = self.spec
    vertices = lookup.vertices
    remote = vertices[self._remote[vertices] & lookup.cold_mask]
    num_remote = remote.size
    num_local_cold = lookup.num_cold - num_remote
    self.last_remote_rows = num_remote
    self.remote_rows += num_remote
    self.local_rows += lookup.num_hot + lookup.num_warm \
        + num_local_cold

    warm_bytes = lookup.num_warm * row_bytes
    lcold_bytes = num_local_cold * row_bytes
    rcold_bytes = num_remote * row_bytes
    moved = warm_bytes + lcold_bytes + rcold_bytes
    pcie = spec.pcie_time(moved) if moved else 0.0
    warm_share = pcie * warm_bytes / moved if moved else 0.0
    nonwarm_share = pcie - warm_share if moved else 0.0
    if rcold_bytes and lcold_bytes:
        remote_share = (nonwarm_share * rcold_bytes
                        / (lcold_bytes + rcold_bytes))
    else:   # one side takes the whole share, not a rounded ratio
        remote_share = nonwarm_share if rcold_bytes else 0.0
    lcold_share = nonwarm_share - remote_share

    warm_seconds = (spec.host_cache_time(warm_bytes)
                    + warm_share) if warm_bytes else 0.0
    disk = spec.disk_time(lcold_bytes) \
        if cache.backing == "disk" else 0.0
    lcold_seconds = (disk + spec.gather_time(lcold_bytes)
                     + lcold_share) if lcold_bytes else 0.0
    remote_seconds = 0.0
    if rcold_bytes:
        messages = len(sorted_unique(self.shards.assignment[remote]))
        remote_seconds = (
            spec.gather_time(rcold_bytes)
            + spec.network_time(rcold_bytes, messages=messages)
            + remote_share)
    self.remote_seconds += remote_seconds
    self.last_remote_seconds = remote_seconds
    return (warm_seconds + lcold_seconds + remote_seconds,
            warm_seconds, lcold_seconds + remote_seconds)
