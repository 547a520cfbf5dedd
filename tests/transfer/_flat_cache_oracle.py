"""The flat ``GPUCache`` family, kept verbatim as the oracle.

``GPUCache`` / ``DegreeCache`` / ``RandomCache`` / ``LRUCache`` /
``PreSampleCache`` below are the bodies ``repro.transfer.cache``
shipped before :class:`~repro.transfer.tiered.TieredCache` became the
only cache class.  They define what a single-GPU-tier cache must do:
which rows a static policy pins, which residents an LRU lookup evicts
(lowest ``(last use, id)``), and — the LRU overflow rule — which of a
batch's misses are admitted when the batch alone overfills the cache
(``admit[:room]``: the lowest ids).  ``test_cache_oracle.py`` runs both
on generated lookup streams.  Do not "fix" or speed up anything here;
``_select_lowest`` is a copy so the oracle shares no code with the
class under test.
"""

import numpy as np


def _select_lowest(ids, scores, k):
    if k <= 0:
        return ids[:0]
    if k >= len(ids):
        return ids
    kth = np.partition(scores, k - 1)[k - 1]
    below = ids[scores < kth]
    tied = np.sort(ids[scores == kth])
    return np.concatenate([below, tied[:k - len(below)]])


class GPUCache:
    """A static GPU-resident feature cache over a chosen vertex set."""

    policy = "static"

    def __init__(self, cached_ids, num_vertices):
        cached_ids = np.unique(np.asarray(cached_ids, dtype=np.int64))
        if len(cached_ids) and (cached_ids[0] < 0
                                or cached_ids[-1] >= num_vertices):
            raise ValueError("cached vertex id out of range")
        self._bitmap = np.zeros(num_vertices, dtype=bool)
        self._bitmap[cached_ids] = True
        self.capacity = len(cached_ids)
        self.hits = 0
        self.misses = 0

    @property
    def num_vertices(self):
        return len(self._bitmap)

    def resident_ids(self):
        return np.flatnonzero(self._bitmap)

    def lookup(self, vertices):
        """Split a request into hits and misses, updating statistics.

        Returns ``(hit_ids, miss_ids)``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        mask = self._bitmap[vertices]
        self.hits += int(mask.sum())
        self.misses += int((~mask).sum())
        return vertices[mask], vertices[~mask]


def _capacity_from_ratio(num_vertices, cache_ratio):
    if not 0.0 <= cache_ratio <= 1.0:
        raise ValueError(
            f"cache_ratio must be in [0, 1], got {cache_ratio}")
    return int(round(num_vertices * cache_ratio))


class DegreeCache(GPUCache):
    """Cache the ``cache_ratio`` fraction of vertices with the highest
    out-degree (PaGraph's static policy)."""

    policy = "degree"

    def __init__(self, graph, cache_ratio):
        capacity = _capacity_from_ratio(graph.num_vertices, cache_ratio)
        order = np.argsort(-graph.out_degrees, kind="stable")
        super().__init__(order[:capacity], graph.num_vertices)


class RandomCache(GPUCache):
    """Cache a uniform random vertex subset."""

    policy = "random"

    def __init__(self, graph, cache_ratio, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        capacity = _capacity_from_ratio(graph.num_vertices, cache_ratio)
        chosen = rng.choice(graph.num_vertices, size=capacity,
                            replace=False) if capacity else []
        super().__init__(chosen, graph.num_vertices)


def presample_frequencies(graph, sampler, seeds, rng, epochs=3,
                          batch_size=512):
    seeds = np.asarray(seeds, dtype=np.int64)
    frequency = np.zeros(graph.num_vertices, dtype=np.int64)
    for _epoch in range(epochs):
        order = rng.permutation(seeds)
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            subgraph = sampler.sample(graph, batch, rng)
            np.add.at(frequency, subgraph.input_nodes, 1)
    return frequency


class LRUCache(GPUCache):
    """Dynamic least-recently-used feature cache: every lookup admits
    its misses and, at capacity, evicts the least recently used
    residents."""

    policy = "lru"

    def __init__(self, graph, cache_ratio):
        num_vertices = (int(graph) if isinstance(graph, (int, np.integer))
                        else graph.num_vertices)
        capacity = _capacity_from_ratio(num_vertices, cache_ratio)
        super().__init__([], num_vertices)
        self.capacity = capacity
        self._clock = 0
        # Last-use timestamp per vertex; -1 = not resident.
        self._last_used = np.full(num_vertices, -1, dtype=np.int64)
        self._resident = 0
        self._resident_ids = np.empty(0, dtype=np.int64)

    def lookup(self, vertices):
        """Split into hits/misses, then admit the misses (LRU evict)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        mask = self._bitmap[vertices]
        self.hits += int(mask.sum())
        self.misses += int((~mask).sum())
        hits, missed = vertices[mask], vertices[~mask]
        self._clock += 1
        # Refresh recency of hits.
        self._last_used[hits] = self._clock
        if self.capacity > 0 and len(missed):
            admit = np.unique(missed)
            overflow = self._resident + len(admit) - self.capacity
            if overflow > 0:
                # Misses are by definition not resident, so the admit
                # set never collides with the eviction candidates.
                ids = self._resident_ids
                evict = _select_lowest(ids, self._last_used[ids],
                                       min(overflow, len(ids)))
                self._bitmap[evict] = False
                self._last_used[evict] = -1
                self._resident_ids = ids[self._bitmap[ids]]
                self._resident = len(self._resident_ids)
            room = self.capacity - self._resident
            admit = admit[:max(room, 0)]
            self._bitmap[admit] = True
            self._last_used[admit] = self._clock
            self._resident_ids = np.concatenate(
                [self._resident_ids, admit])
            self._resident += len(admit)
        return hits, missed


class PreSampleCache(GPUCache):
    """Cache the most frequently requested vertices, measured by
    pre-sampling (GNNLab's policy)."""

    policy = "presample"

    def __init__(self, graph, sampler, seeds, cache_ratio, rng=None,
                 epochs=3, batch_size=512):
        rng = rng if rng is not None else np.random.default_rng(0)
        capacity = _capacity_from_ratio(graph.num_vertices, cache_ratio)
        frequency = presample_frequencies(graph, sampler, seeds, rng,
                                          epochs=epochs,
                                          batch_size=batch_size)
        order = np.argsort(-frequency, kind="stable")
        super().__init__(order[:capacity], graph.num_vertices)
        self.frequency = frequency
