"""The feature cache: one class, two resident tiers, one backing store.

Caching feature rows in spare GPU memory is the only optimization that
*reduces* CPU-GPU traffic instead of overlapping or streamlining it
(§7.3.3); BGL-style systems stretch the same idea over a hierarchy.
:class:`TieredCache` is both:

* **hot** tier — feature/embedding rows resident in spare GPU memory;
  a hit costs nothing (the row is already device-side);
* **warm** tier — rows staged in page-locked (pinned) host memory; a
  hit pays a fast pinned-memory read plus the PCIe crossing;
* **cold** — everything else, read from the *backing store*:
  ``"host"`` RAM (the paper's §7.3.3 setting: a miss pays the pageable
  gather and PCIe, and zero-copy reads it in place) or ``"disk"``
  (local NVMe / a remote feature store: a miss additionally pays the
  storage fetch, and zero-copy must stage it first).  Every
  host-backed bill is the disk-backed formula with the disk-only terms
  at exactly ``0.0``.  The backing store is also what decides whether
  reports carry per-tier numbers: a host-backed cache with no warm
  tier is the paper's flat GPU cache and reports one hit rate.

One cache serves both consumers: the training engines' feature fetch
(:mod:`repro.transfer.methods` bills misses tier by tier) and the
serving executors' feature / embedding lookup.

Admission/eviction is pluggable:

* ``"degree"`` — static degree-weighted placement (PaGraph): hottest
  tiers hold the highest out-degree vertices — cheap, works when
  degree predicts sampling frequency, fails otherwise;
* ``"presample"`` — static frequency placement measured by
  pre-sampling the real access pattern (GNNLab/BGL) — robust to
  flat-degree graphs and biased samplers;
* ``"static"`` — static placement by any caller-supplied score
  (serving uses measured request frequencies here);
* ``"lfu"`` — dynamic frequency: every access bumps a counter, touched
  rows are promoted to hot, overflow demotes the lowest-frequency rows
  down the hierarchy;
* ``"lru"`` — dynamic recency: same machinery with a clock score.

All bookkeeping is vectorized — bitmap/array operations per lookup, no
per-vertex Python on hits or misses — and fully deterministic:
demotion/eviction picks the lowest ``(score, vertex id)`` pairs via
:func:`select_lowest`, so identical lookup sequences produce
bit-identical hit/miss sequences and residency states.  The one
exception is the **LRU overflow rule**: when a single batch's new rows
alone overfill a tier they all tie on recency, and ``lru`` keeps the
*lowest* ids of the batch (sheds the highest) — the rule the serving
goldens (``tests/golden/serving_runs.json``) and
``tests/transfer/test_cache_oracle.py`` pin; ``lfu`` sheds by
``(score, id)`` like every other eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import TransferError
from ..perf import sorted_unique

__all__ = ["TieredCache", "TierLookup", "TierBill", "make_tiered_cache",
           "backing_for", "presample_frequencies", "select_lowest",
           "TIER_POLICIES", "DYNAMIC_TIER_POLICIES", "BACKING_STORES"]

#: Admission policies `make_tiered_cache` understands.
TIER_POLICIES = ("lru", "lfu", "degree", "presample", "static")
#: The subset that adapts online (the rest place rows once, up front).
DYNAMIC_TIER_POLICIES = ("lru", "lfu")
#: Where un-cached rows live.
BACKING_STORES = ("disk", "host")

# Tier codes in the residency array.
_COLD, _WARM, _HOT = 0, 1, 2


def select_lowest(ids, scores, k):
    """The ``k`` elements of ``ids`` with the lowest ``(score, id)``.

    Deterministic and platform-stable: strictly-lowest scores win, ties
    at the threshold score break toward lower ids.  O(n) partition plus
    a sort over only the tied group.
    """
    if k <= 0:
        return ids[:0]
    if k >= len(ids):
        return ids
    ranked = scores.copy()
    ranked.partition(k - 1)
    kth = ranked[k - 1]
    below = ids[scores < kth]
    tied = ids[scores == kth]      # a fresh gather: sorted in place
    tied.sort()
    return np.concatenate([below, tied[:k - len(below)]])


class TierLookup(NamedTuple):
    """Per-tier split of one batched lookup.

    ``tiers`` holds each row's tier code where it was found (cold 0,
    warm 1, hot 2), parallel to ``vertices`` (duplicates keep their
    own entry: accounting is per request, not per distinct row), and
    the three counts are its tallies.  The masks and id arrays are
    derived from ``tiers`` when read, so a caller that needs only the
    counts — every bill — pays for none of them.
    """

    vertices: np.ndarray
    tiers: np.ndarray
    num_hot: int
    num_warm: int
    num_cold: int

    @property
    def hot_mask(self):
        return self.tiers == _HOT

    @property
    def warm_mask(self):
        return self.tiers == _WARM

    @property
    def cold_mask(self):
        return self.tiers == _COLD

    @property
    def hot_ids(self):
        return self.vertices[self.hot_mask]

    @property
    def warm_ids(self):
        return self.vertices[self.warm_mask]

    @property
    def misses(self):
        """Rows not GPU-resident, in request order."""
        return self.vertices[~self.hot_mask]


@dataclass(frozen=True)
class TierBill:
    """Simulated seconds and bytes of one tiered fetch, per tier."""

    hot_seconds: float
    warm_seconds: float
    cold_seconds: float
    hot_bytes: int
    warm_bytes: int
    cold_bytes: int

    @property
    def total_seconds(self):
        return self.hot_seconds + self.warm_seconds + self.cold_seconds

    def tier_seconds(self):
        """The per-tier seconds as a ``{"hot", "warm", "cold"}`` dict
        (the shape reports and perf counters carry)."""
        return {"hot": self.hot_seconds, "warm": self.warm_seconds,
                "cold": self.cold_seconds}


class TieredCache:
    """A two-resident-tier (hot GPU / warm pinned-host) cache over a
    host- or disk-resident backing store.

    Parameters
    ----------
    num_vertices:
        Size of the row universe (graph vertices or embedding-table
        rows).
    hot_capacity, warm_capacity:
        Row budgets of the GPU and pinned-host tiers.  Both zero makes
        the cache *disabled*: every lookup is a zero-bookkeeping
        pass-through reporting all rows cold.
    policy:
        One of :data:`TIER_POLICIES`.
    scores:
        Static placement score per vertex (required for the static
        policies; higher scores land in hotter tiers).
    backing:
        One of :data:`BACKING_STORES` — where cold rows are read from,
        hence what a miss is billed (see the module docstring).

    Invariants, preserved under arbitrary lookup sequences: a row is
    resident in at most one tier, and each tier holds at most its
    capacity.  :meth:`residency` exposes the live counts for tests.
    """

    def __init__(self, num_vertices, hot_capacity, warm_capacity,
                 policy="lfu", scores=None, backing="disk"):
        num_vertices = int(num_vertices)
        if num_vertices < 0:
            raise TransferError("num_vertices must be non-negative")
        if policy not in TIER_POLICIES:
            raise TransferError(
                f"unknown tier policy {policy!r}; known: {TIER_POLICIES}")
        if backing not in BACKING_STORES:
            raise TransferError(
                f"unknown backing store {backing!r}; known: "
                f"{BACKING_STORES}")
        hot_capacity = int(hot_capacity)
        warm_capacity = int(warm_capacity)
        if hot_capacity < 0 or warm_capacity < 0:
            raise TransferError("tier capacities must be non-negative")
        if hot_capacity + warm_capacity > num_vertices:
            raise TransferError(
                f"total tier budget {hot_capacity + warm_capacity} "
                f"exceeds the {num_vertices}-row universe")
        self.num_vertices = num_vertices
        self.hot_capacity = hot_capacity
        self.warm_capacity = warm_capacity
        self.policy = policy
        self.backing = backing
        self.dynamic = policy in DYNAMIC_TIER_POLICIES
        self.enabled = (hot_capacity + warm_capacity) > 0

        self.hot_hits = 0
        self.warm_hits = 0
        self.cold_misses = 0

        if not self.enabled:
            # Disabled cache: no residency state at all.  lookup() takes
            # the pass-through path and never touches these.
            self._tier = None
            return

        self._tier = np.zeros(num_vertices, dtype=np.int8)
        self._clock = 0
        if self.dynamic:
            # Priority score per row: LRU keeps a last-use clock, LFU an
            # access count.  Rows start cold with score 0.
            self._score = np.zeros(num_vertices, dtype=np.int64)
            self._hot_ids = np.empty(0, dtype=np.int64)
            self._warm_ids = np.empty(0, dtype=np.int64)
        else:
            if scores is None:
                raise TransferError(
                    f"static tier policy {policy!r} needs a score array")
            scores = np.asarray(scores, dtype=np.float64)
            if scores.shape != (num_vertices,):
                raise TransferError(
                    f"scores must have shape ({num_vertices},), got "
                    f"{scores.shape}")
            # Stable sort on -score => ties broken toward lower ids.
            order = np.argsort(-scores, kind="stable")
            hot = order[:hot_capacity]
            warm = order[hot_capacity:hot_capacity + warm_capacity]
            self._tier[hot] = _HOT
            self._tier[warm] = _WARM
            self._hot_ids = np.sort(hot)
            self._warm_ids = np.sort(warm)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def residency(self):
        """Live resident-row counts per tier (for invariant checks)."""
        if not self.enabled:
            return {"hot": 0, "warm": 0}
        return {"hot": int((self._tier == _HOT).sum()),
                "warm": int((self._tier == _WARM).sum())}

    @property
    def requests(self):
        return self.hot_hits + self.warm_hits + self.cold_misses

    @property
    def hot_hit_rate(self):
        total = self.requests
        return self.hot_hits / total if total else 0.0

    @property
    def warm_hit_rate(self):
        total = self.requests
        return self.warm_hits / total if total else 0.0

    @property
    def hit_rate(self):
        """GPU-resident hit rate (the paper's one cache hit rate)."""
        return self.hot_hit_rate

    def reset_stats(self):
        """Zero the hit/miss counters (residency is untouched)."""
        self.hot_hits = 0
        self.warm_hits = 0
        self.cold_misses = 0

    # ------------------------------------------------------------------
    # Snapshot / restore (fleet crash recovery)
    # ------------------------------------------------------------------
    def snapshot(self):
        """Capture residency state + counters as a picklable dict.

        Restoring the snapshot on a fresh (or crashed-and-replaced)
        cache reproduces the exact tier assignments, admission scores,
        and logical clock, so a recovered replica replays the same
        hit/miss sequence the uninterrupted one would have (the fleet's
        deterministic cache re-warm after crash recovery).
        """
        state = {
            "policy": self.policy,
            "num_vertices": self.num_vertices,
            "hot_capacity": self.hot_capacity,
            "warm_capacity": self.warm_capacity,
            "hot_hits": self.hot_hits,
            "warm_hits": self.warm_hits,
            "cold_misses": self.cold_misses,
        }
        if self.enabled:
            state["tier"] = self._tier.copy()
            state["clock"] = self._clock
            state["hot_ids"] = self._hot_ids.copy()
            state["warm_ids"] = self._warm_ids.copy()
            if self.dynamic:
                state["score"] = self._score.copy()
        return state

    def restore(self, state):
        """Adopt a :meth:`snapshot` taken from a same-shaped cache."""
        same = (state.get("policy") == self.policy
                and state.get("num_vertices") == self.num_vertices
                and state.get("hot_capacity") == self.hot_capacity
                and state.get("warm_capacity") == self.warm_capacity)
        if not same:
            raise TransferError(
                "cache snapshot does not match this cache's "
                "policy/shape; refusing to restore")
        self.hot_hits = int(state["hot_hits"])
        self.warm_hits = int(state["warm_hits"])
        self.cold_misses = int(state["cold_misses"])
        if self.enabled:
            self._tier = np.asarray(state["tier"], dtype=np.int8).copy()
            self._clock = int(state["clock"])
            self._hot_ids = np.asarray(state["hot_ids"],
                                       dtype=np.int64).copy()
            self._warm_ids = np.asarray(state["warm_ids"],
                                        dtype=np.int64).copy()
            if self.dynamic:
                self._score = np.asarray(state["score"],
                                         dtype=np.int64).copy()

    def evict_all(self):
        """Drop all residency (a crashed process lost its memory);
        hit/miss counters are kept — they are run-level statistics.
        Static policies are untouched: their placement is a pure
        function of the score array, so a restart reproduces it
        immediately.  Dynamic policies return to the cold initial
        state and re-learn (or are re-warmed from a snapshot via
        :meth:`restore`)."""
        if not self.enabled or not self.dynamic:
            return
        self._tier[:] = _COLD
        self._clock = 0
        self._score[:] = 0
        self._hot_ids = np.empty(0, dtype=np.int64)
        self._warm_ids = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # The lookup fast path
    # ------------------------------------------------------------------
    def lookup(self, vertices):
        """Split a batched request into per-tier hits; dynamic policies
        then promote/admit the touched rows.  Returns a
        :class:`TierLookup`."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if not self.enabled:
            # Zero-cost pass-through: no residency, no score updates.
            self.cold_misses += len(vertices)
            return TierLookup(vertices, np.zeros(len(vertices), np.int8),
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
            self._admit(vertices, tiers, num_hot, num_warm)
        return TierLookup(vertices, tiers, num_hot, num_warm, num_cold)

    def _admit(self, vertices, tiers, num_hot, num_warm):
        """Promote every row touched this call (``tiers``: where each
        was found, ``num_hot`` / ``num_warm`` of them in the hot / warm
        tier) to the hot tier, cascading demotions/evictions down the
        hierarchy (batched array ops throughout)."""
        self._clock += 1
        if self.policy == "lru":
            self._score[vertices] = self._clock
        else:  # lfu: each access counts, duplicates included
            np.add.at(self._score, vertices, 1)
        if num_hot == vertices.size:
            return      # every row is already hot: nothing to promote

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

    def _shed(self, rows, count):
        """The ``count`` of the just-admitted ``rows`` to push down when
        they alone overfill a tier: lowest ``(score, id)`` first — but
        under ``lru`` ties (one batch's rows share a clock value) shed
        the *highest* ids, the LRU overflow rule the serving goldens
        pin."""
        if self.policy == "lru":
            return -select_lowest(-rows, self._score[rows], count)
        return select_lowest(rows, self._score[rows], count)

    def _admit_into_warm(self, rows):
        """Place ``rows`` in the warm tier, evicting the lowest-score
        residents to cold when over capacity."""
        if self.warm_capacity == 0:
            self._tier[rows] = _COLD
            return
        self._tier[rows] = _WARM
        self._warm_ids = np.concatenate([self._warm_ids, rows])
        overflow = len(self._warm_ids) - self.warm_capacity
        if overflow > 0:
            candidates = self._warm_ids[:-len(rows)]
            evict = select_lowest(candidates, self._score[candidates],
                                  min(overflow, len(candidates)))
            spill = overflow - len(evict)
            if spill > 0:
                evict = np.concatenate([evict, self._shed(rows, spill)])
            self._tier[evict] = _COLD
            self._warm_ids = self._warm_ids[
                self._tier[self._warm_ids] == _WARM]

    # ------------------------------------------------------------------
    # Cost charging
    # ------------------------------------------------------------------
    def bill(self, lookup, row_bytes, spec):
        """Extract-load-style :class:`TierBill` for one lookup.

        Hot rows are free (already device-resident).  Warm rows pay the
        pinned-host read plus their PCIe share; cold rows pay the
        pageable gather and their PCIe share, after the disk fetch when
        the backing store is disk.  The PCIe DMA's cost over all moved
        rows is split between the tiers in proportion to bytes.
        """
        hot_bytes = lookup.num_hot * row_bytes
        warm_bytes = lookup.num_warm * row_bytes
        cold_bytes = lookup.num_cold * row_bytes
        moved = warm_bytes + cold_bytes
        pcie = spec.pcie_time(moved) if moved else 0.0
        warm_share = pcie * warm_bytes / moved if moved else 0.0
        cold_share = pcie - warm_share if moved else 0.0
        warm_seconds = spec.host_cache_time(warm_bytes) + warm_share \
            if warm_bytes else 0.0
        disk = spec.disk_time(cold_bytes) \
            if self.backing == "disk" else 0.0
        cold_seconds = (disk + spec.gather_time(cold_bytes)
                        + cold_share) if cold_bytes else 0.0
        return TierBill(hot_seconds=0.0, warm_seconds=warm_seconds,
                        cold_seconds=cold_seconds, hot_bytes=hot_bytes,
                        warm_bytes=warm_bytes, cold_bytes=cold_bytes)

    def fetch_seconds(self, vertices, row_bytes, spec):
        """Convenience: lookup + bill in one call; returns
        ``(total_seconds, TierBill)``."""
        bill = self.bill(self.lookup(vertices), row_bytes, spec)
        return bill.total_seconds, bill


def presample_frequencies(graph, sampler, seeds, rng, epochs=3,
                          batch_size=512):
    """Feature-request frequency of every vertex, measured by running
    ``epochs`` of sampling exactly as training would (``epochs`` and
    ``batch_size`` both ``>= 1``)."""
    for name, value in (("batch_size", batch_size), ("epochs", epochs)):
        if value < 1:
            raise TransferError(f"{name} must be >= 1, got {value}")
    seeds = np.asarray(seeds, dtype=np.int64)
    frequency = np.zeros(graph.num_vertices, dtype=np.int64)
    for _epoch in range(epochs):
        order = rng.permutation(seeds)
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            subgraph = sampler.sample(graph, batch, rng)
            np.add.at(frequency, subgraph.input_nodes, 1)
    return frequency


def backing_for(policy, warm_ratio):
    """The backing store the worker and serving-node factories give a
    cache: one GPU tier over host-resident features is the paper's
    §7.3.3 setting; a warm tier — or ``lfu``, which only the
    hierarchy's systems use — means the out-of-core one, features on
    disk.  The policy name is read in any case, as
    :func:`make_tiered_cache` reads it."""
    lfu = str(policy).lower() == "lfu"
    return "host" if warm_ratio == 0 and not lfu else "disk"


def make_tiered_cache(policy, graph, hot_ratio, warm_ratio,
                      sampler=None, seeds=None, rng=None, scores=None,
                      backing="disk"):
    """Build a :class:`TieredCache` for one worker or serving node.

    Parameters
    ----------
    policy:
        One of :data:`TIER_POLICIES`.
    graph:
        A CSR graph (for ``num_vertices`` and degree scores) or a bare
        row-universe size (the serving layer caches embedding-table
        rows, which have no graph behind them).
    hot_ratio, warm_ratio:
        Tier budgets as fractions of the row universe.
    sampler, seeds, rng:
        Pre-sampling configuration (``policy="presample"`` only).
    scores:
        Caller-supplied placement score (``policy="static"``, e.g.
        measured request frequencies on the serving side).
    backing:
        Where cold rows live; see :func:`backing_for` for the rule
        the engine-side factories apply.
    """
    bare = isinstance(graph, (int, np.integer))
    num_vertices = int(graph) if bare else graph.num_vertices
    for name, ratio in (("hot_ratio", hot_ratio),
                        ("warm_ratio", warm_ratio)):
        if not 0.0 <= ratio <= 1.0:
            raise TransferError(f"{name} must be in [0, 1], got {ratio}")
    if hot_ratio + warm_ratio > 1.0:
        raise TransferError(
            f"hot_ratio + warm_ratio must be <= 1, got "
            f"{hot_ratio + warm_ratio}")
    hot = int(round(num_vertices * hot_ratio))
    warm = int(round(num_vertices * warm_ratio))
    warm = min(warm, num_vertices - hot)

    key = policy.lower() if isinstance(policy, str) else policy
    if key in DYNAMIC_TIER_POLICIES:
        return TieredCache(num_vertices, hot, warm, policy=key,
                           backing=backing)
    if key == "degree":
        if bare:
            raise TransferError(
                "degree tier policy needs a graph, not a row count")
        scores = graph.out_degrees.astype(np.float64)
    elif key == "presample":
        if scores is None:
            if bare or sampler is None or seeds is None:
                raise TransferError(
                    "presample tier policy needs sampler and seeds "
                    "(or a precomputed score array)")
            rng = rng if rng is not None else np.random.default_rng(0)
            scores = presample_frequencies(
                graph, sampler, seeds, rng).astype(np.float64)
    elif key == "static":
        if scores is None:
            raise TransferError("static tier policy needs a score array")
    else:
        raise TransferError(
            f"unknown tier policy {policy!r}; known: {TIER_POLICIES}")
    return TieredCache(num_vertices, hot, warm, policy=key,
                       scores=scores, backing=backing)
