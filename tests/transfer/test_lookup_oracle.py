"""Differential test: the tier-code lookup and its all-hot exits against
the eager-mask lookup they replaced (``_lookup_oracle.py``).

A :class:`TierLookup` now carries each row's tier code and the three
counts; its masks and id arrays are derived on read.  ``_admit`` stops
after the score update when every row was already hot, and
``BatchExecutor._bill`` skips the remote split when no row is cold.
Over generated streams — ``lru`` / ``lfu``, any hot and warm capacity
including zero, batches with duplicates and repeated all-hot batches,
one-shard and metis-v x4 shard maps with and without replicas — a live
cache and executor and their oracle twins must agree step for step:
tier arrays, hot / warm id arrays, scores, clock, counters, billed
seconds and remote rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.core import make_partitioner
from repro.fleet import ShardMap
from repro.nn import build_model
from repro.partition.base import PartitionResult
from repro.partition.replication import k_redundant_replication
from repro.serve.executor import BatchExecutor
from repro.transfer import BACKING_STORES, TieredCache, TierLookup

from . import _lookup_oracle as oracle

CODES = {"cold": 0, "warm": 1, "hot": 2}
#: The tiers a lookup hands out id arrays for.
ID_VIEWS = ("hot", "warm")


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.1)


@pytest.fixture(scope="module")
def model(data):
    return build_model("gcn", data.feature_dim, data.num_classes,
                       rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def shard_maps(data):
    metis = make_partitioner("metis-v").partition(
        data.graph, 4, split=data.split, rng=np.random.default_rng(0))
    whole = PartitionResult(
        np.zeros(data.num_vertices, dtype=np.int64), 1, "single")
    return {"single": ShardMap(whole, data.graph),
            "metis-v": ShardMap(metis, data.graph),
            "metis-v-replicated": ShardMap(
                k_redundant_replication(metis, 2), data.graph)}


@st.composite
def streams(draw, num_vertices):
    """Batches over a small permuted population (so duplicates and
    all-hot batches are common); a step may repeat the previous
    batch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    population = rng.permutation(num_vertices)[
        :draw(st.integers(4, 60))]
    stream = []
    for size, repeat in draw(st.lists(
            st.tuples(st.integers(1, 40), st.booleans()),
            min_size=1, max_size=14)):
        if repeat and stream:
            stream.append(stream[-1].copy())
        else:
            stream.append(rng.choice(population, size=size))
    return stream


def assert_properties(lookup):
    """Every derived view is its ``tiers == code`` definition."""
    vertices, tiers = lookup.vertices, lookup.tiers
    for name, code in CODES.items():
        mask = tiers == code
        assert getattr(lookup, f"{name}_mask").tobytes() == mask.tobytes()
        if name in ID_VIEWS:
            assert getattr(lookup, f"{name}_ids").tobytes() \
                == vertices[mask].tobytes()
        assert getattr(lookup, f"num_{name}") == int(mask.sum())
    assert lookup.misses.tobytes() == vertices[tiers != CODES["hot"]] \
        .tobytes()


def assert_same_lookup(new, old):
    assert new.vertices.tobytes() == old.vertices.tobytes()
    for name in CODES:
        assert getattr(new, f"{name}_mask").tobytes() \
            == getattr(old, f"{name}_mask").tobytes()
        if name in ID_VIEWS:
            assert getattr(new, f"{name}_ids").tobytes() \
                == getattr(old, f"{name}_ids").tobytes()
        assert getattr(new, f"num_{name}") == getattr(old, f"num_{name}")
    assert new.misses.tobytes() == old.misses.tobytes()


def assert_same_cache(cache, twin):
    assert (cache.hot_hits, cache.warm_hits, cache.cold_misses) \
        == (twin.hot_hits, twin.warm_hits, twin.cold_misses)
    if not cache.enabled:
        return
    assert cache._tier.tobytes() == twin._tier.tobytes()
    assert cache._hot_ids.tobytes() == twin._hot_ids.tobytes()
    assert cache._warm_ids.tobytes() == twin._warm_ids.tobytes()
    assert cache._score.tobytes() == twin._score.tobytes()
    assert cache._clock == twin._clock


def ledger(executor):
    return (executor.local_rows, executor.remote_rows,
            executor.remote_seconds, executor.last_remote_rows,
            executor.last_remote_seconds)


def run_twins(data, model, shards, replica, policy, hot, warm, backing,
              row_bytes, stream):
    cache = TieredCache(data.num_vertices, hot, warm, policy=policy,
                        backing=backing)
    executor = BatchExecutor(shards, replica, data, model)
    twin, twin_executor = oracle.adopt(
        TieredCache(data.num_vertices, hot, warm, policy=policy,
                    backing=backing),
        BatchExecutor(shards, replica, data, model))
    all_hot = 0
    for batch in stream:
        new = cache.lookup(batch)
        old = twin.lookup(batch)
        assert isinstance(new, TierLookup)
        assert_properties(new)
        assert_same_lookup(new, old)
        assert_same_cache(cache, twin)
        assert executor._bill(cache, new, row_bytes) \
            == twin_executor._bill(twin, old, row_bytes)
        assert ledger(executor) == ledger(twin_executor)
        all_hot += new.num_hot == len(batch)
    return all_hot


@settings(max_examples=60, deadline=None)
@given(draw=st.data(),
       policy=st.sampled_from(["lru", "lfu"]),
       hot=st.sampled_from([0, 1, 4, 16, 48]),
       warm=st.sampled_from([0, 1, 4, 16, 48]),
       backing=st.sampled_from(BACKING_STORES),
       row_bytes=st.sampled_from([4, 512]),
       shard_name=st.sampled_from(["single", "metis-v",
                                   "metis-v-replicated"]),
       replica=st.integers(0, 3))
def test_lookups_match_the_eager_mask_oracle(
        data, model, shard_maps, draw, policy, hot, warm, backing,
        row_bytes, shard_name, replica):
    shards = shard_maps[shard_name]
    run_twins(data, model, shards, replica % shards.num_shards, policy,
              hot, warm, backing, row_bytes,
              draw.draw(streams(data.num_vertices)))


@pytest.mark.parametrize("policy", ["lru", "lfu"])
def test_repeated_batches_take_the_all_hot_exits(data, model, shard_maps,
                                                 policy):
    # A batch that fits the hot tier is all hot when repeated, so both
    # exits run — and must still leave everything as the oracle does.
    batch = np.array([5, 9, 9, 17, 5, 30, 41])
    stream = [batch, batch, batch[::-1], batch[:3], batch]
    all_hot = run_twins(data, model, shard_maps["metis-v-replicated"], 1,
                        policy, 8, 4, "disk", 512, stream)
    assert all_hot == len(stream) - 1


def test_lookup_is_an_immutable_tier_code_record(data):
    cache = TieredCache(data.num_vertices, 4, 4, policy="lru")
    lookup = cache.lookup([3, 3, 8])
    assert lookup._fields == ("vertices", "tiers", "num_hot", "num_warm",
                              "num_cold")
    with pytest.raises(AttributeError):
        lookup.num_hot = 1
    with pytest.raises(TypeError):
        TierLookup(lookup.vertices, lookup.tiers)   # counts required

    off = TieredCache(data.num_vertices, 0, 0).lookup([3, 3, 8])
    assert off.tiers.dtype == np.int8
    assert off.tiers.tolist() == [0, 0, 0]
    assert (off.num_hot, off.num_warm, off.num_cold) == (0, 0, 3)
    assert_properties(off)
