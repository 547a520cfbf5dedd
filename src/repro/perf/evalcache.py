"""Epoch-level cache of evaluation subgraphs.

``Trainer.run`` evaluates validation accuracy every epoch with an rng
reseeded from the *same* fixed seed, so every epoch re-samples
byte-identical validation subgraphs — pure batch-preparation waste, and
exactly the prepared-batch reuse opportunity BGL exploits.  This cache
stores the sampled ``(seeds, subgraph)`` mini-batches the first time a
given evaluation runs and replays them afterwards.

Correctness rests on the key: a stored entry is only replayed for the
same sampler instance *and* configuration, the same vertex set, the same
batch size, and the same rng seed token — any change (adaptive batch
size, a different sampler, a new seed) misses and re-samples.
"""

from __future__ import annotations

import zlib

import numpy as np

from .profiler import PERF

__all__ = ["EvalSubgraphCache"]


class EvalSubgraphCache:
    """Keyed store of fully-prepared evaluation mini-batch lists.

    Parameters
    ----------
    max_entries:
        Distinct keys kept (small: one per evaluated split in
        practice).  Oldest entries are evicted first.
    """

    def __init__(self, max_entries=8):
        self.max_entries = int(max_entries)
        self._entries = {}

    @staticmethod
    def make_key(sampler, vertex_ids, batch_size, seed_token):
        """Cache key capturing everything the sampled batches depend on.

        ``id(sampler)`` guards against a *different* sampler object with
        the same description; ``describe()`` guards against in-place
        reconfiguration of the same object.
        """
        vertex_ids = np.ascontiguousarray(
            np.asarray(vertex_ids, dtype=np.int64))
        return (id(sampler), sampler.describe(), int(batch_size),
                int(seed_token), len(vertex_ids),
                zlib.crc32(vertex_ids.tobytes()))

    def get(self, key):
        """The stored batch list for ``key``, or ``None`` on miss."""
        batches = self._entries.get(key)
        if batches is None:
            PERF.counters["eval_subgraph_misses"] += 1
            return None
        PERF.counters["eval_subgraph_hits"] += 1
        return batches

    def put(self, key, batches):
        """Store the prepared ``(seeds, subgraph)`` list for ``key``.

        Re-putting an existing key *replaces* the stored list (last
        write wins) rather than silently keeping the old value or
        raising: the key already encodes everything the sampled batches
        depend on, so two puts under one key carry equivalent payloads
        — replacing is harmless — while a caller that re-prepared after
        a miss-then-race deserves its fresher object to be the one
        served.  Replacement keeps the entry's eviction position.
        """
        if key not in self._entries:
            while len(self._entries) >= self.max_entries:
                del self._entries[next(iter(self._entries))]
        self._entries[key] = list(batches)

    def clear(self):
        """Drop every stored entry."""
        self._entries.clear()

    def __len__(self):
        return len(self._entries)
