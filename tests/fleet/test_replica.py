"""The executor's shard-aware billing (local/remote split, single-shard
reduction) and the ReplicaServer queueing shell."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.core import make_partitioner
from repro.errors import FleetError, SanitizerError
from repro.fleet import ReplicaServer, Router, ShardMap
from repro.fleet.metrics import ReplicaReport
from repro.nn import build_model, no_grad
from repro.perf import sorted_unique
from repro.serve import BatchPolicy
from repro.serve.executor import BatchExecutor
from repro.serve.requests import InferenceRequest
from repro.transfer import make_tiered_cache
from repro.transfer.hardware import DEFAULT_SPEC
from repro.transfer.tiered import TieredCache, backing_for


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.15)


@pytest.fixture(scope="module")
def model(data):
    return build_model("gcn", data.feature_dim, data.num_classes,
                       rng=np.random.default_rng(7))


def make_shards(data, parts, name="metis-v"):
    part = make_partitioner(name).partition(
        data.graph, parts, split=data.split,
        rng=np.random.default_rng(0))
    return ShardMap(part, data.graph)


def twin_cache(data, cache_policy="lru", cache_ratio=0.0,
               warm_ratio=0.0):
    """A cache configured like an executor's (a pass-through one when
    caching is off), to bill the same lookups on its own."""
    if cache_ratio <= 0 and warm_ratio <= 0:
        return TieredCache(0, 0, 0, backing="host")
    return make_tiered_cache(cache_policy, data.graph, cache_ratio,
                             warm_ratio,
                             backing=backing_for(cache_policy,
                                                 warm_ratio))


class TestSingleShardReduction:
    """With one shard everything is local: the executor must charge
    *bit-identical* seconds to the cache's own bill."""

    @pytest.mark.parametrize("kwargs", [
        dict(cache_policy="lfu", cache_ratio=0.1, warm_ratio=0.1),
        dict(cache_policy="lru", cache_ratio=0.2),
        dict(cache_ratio=0.0),
    ])
    def test_precomputed_billing_reduces(self, data, model, kwargs):
        shards = make_shards(data, 1, name="hash")
        executor = BatchExecutor(shards, 0, data, model,
                                 mode="precomputed", **kwargs)
        table = executor.embeddings.table
        row_bytes = table.shape[1] * table.itemsize
        cache = twin_cache(data, **kwargs)
        rng = np.random.default_rng(0)
        vertices = rng.choice(data.test_ids, size=48)
        for batch in np.split(vertices, 3):
            _, bp, dt, nn = executor.execute(batch,
                                             np.random.default_rng(1))
            bill = cache.bill(cache.lookup(sorted_unique(batch)),
                              row_bytes, DEFAULT_SPEC)
            assert (bp, dt, nn) == (
                0.0, bill.total_seconds, DEFAULT_SPEC.compute_time(
                    executor.embeddings.head_flops(len(batch))))
        assert executor.remote_rows == 0
        assert executor.remote_seconds == 0.0
        assert executor.local_rows > 0

    @settings(max_examples=40, deadline=None)
    @given(policy=st.sampled_from(["lru", "lfu", "degree"]),
           hot=st.sampled_from([0.0, 0.02, 0.1]),
           warm=st.sampled_from([0.0, 0.05, 0.2]),
           backing=st.sampled_from(["host", "disk"]),
           row_bytes=st.sampled_from([4, 128, 516]),
           batches=st.lists(
               st.lists(st.integers(0, 10 ** 6), max_size=40),
               min_size=1, max_size=6))
    def test_zero_remote_bill_equals_the_caches_own(
            self, data, model, policy, hot, warm, backing, row_bytes,
            batches):
        """Any cache, any lookup: with nothing remote the shard
        executor's ``(total, warm, cold)`` is ``TieredCache.bill``'s,
        bit for bit."""
        shards = make_shards(data, 1, name="hash")
        executor = BatchExecutor(shards, 0, data, model,
                                 mode="precomputed", cache_ratio=0.0)
        cache = make_tiered_cache(policy, data.graph, hot, warm,
                                  backing=backing)
        for batch in batches:
            rows = np.asarray(batch, dtype=np.int64) % data.num_vertices
            lookup = cache.lookup(rows)
            bill = cache.bill(lookup, row_bytes, DEFAULT_SPEC)
            assert executor._bill(cache, lookup, row_bytes) == (
                bill.total_seconds, bill.warm_seconds,
                bill.cold_seconds)
            assert executor.last_remote_rows == 0
            assert executor.last_remote_seconds == 0.0

    def test_sampled_flat_billing_reduces(self, data, model):
        shards = make_shards(data, 1, name="hash")
        executor = BatchExecutor(shards, 0, data, model, mode="sampled",
                                 cache_ratio=0.2)
        cache = twin_cache(data, cache_ratio=0.2)
        vertices = data.test_ids[:16]
        # Engines enter no_grad in run(); we call execute raw.
        with no_grad():
            _, _, dt, _ = executor.execute(vertices,
                                           np.random.default_rng(5))
        subgraph = executor.sampler.sample(data.graph, vertices,
                                           np.random.default_rng(5))
        row_bytes = data.feature_dim * data.features.itemsize
        assert dt == cache.bill(cache.lookup(subgraph.input_nodes),
                                row_bytes, DEFAULT_SPEC).total_seconds


class TestRemoteBilling:
    def test_remote_rows_cost_more_than_local(self, data, model):
        """The same cold fetch priced remotely must cost at least the
        network latency more than priced locally."""
        shards = make_shards(data, 4)
        executor = BatchExecutor(shards, 0, data, model,
                                 mode="precomputed", cache_ratio=0.0)
        local = shards.shard_vertices(0)[:8]
        remote = shards.shard_vertices(1)[:8]
        row_bytes = 256
        local_cost = executor.fetch_seconds(local, row_bytes)
        assert executor.last_remote_rows == 0
        remote_cost = executor.fetch_seconds(remote, row_bytes)
        assert executor.last_remote_rows == len(remote)
        assert remote_cost > local_cost
        assert remote_cost - local_cost \
            >= DEFAULT_SPEC.network_latency * 0.99
        assert executor.remote_rows == len(remote)
        assert executor.remote_seconds > 0

    def test_messages_scale_with_owner_count(self, data, model):
        """Remote rows spread over three owner shards pay three
        network messages; the same count from one shard pays one."""
        shards = make_shards(data, 4)
        executor = BatchExecutor(shards, 0, data, model,
                                 mode="precomputed", cache_ratio=0.0)
        one_owner = shards.shard_vertices(1)[:6]
        three_owners = np.concatenate([
            shards.shard_vertices(1)[:2],
            shards.shard_vertices(2)[:2],
            shards.shard_vertices(3)[:2]])
        row_bytes = 128
        single = executor.fetch_seconds(one_owner, row_bytes)
        spread = executor.fetch_seconds(three_owners, row_bytes)
        assert spread == pytest.approx(
            single + 2 * DEFAULT_SPEC.network_latency)

    def test_tiered_cold_split_accumulates_tiers(self, data, model):
        shards = make_shards(data, 4)
        executor = BatchExecutor(shards, 0, data, model,
                                 mode="precomputed",
                                 cache_policy="lfu", cache_ratio=0.05,
                                 warm_ratio=0.05)
        mixed = np.concatenate([shards.shard_vertices(0)[:8],
                                shards.shard_vertices(2)[:8]])
        seconds = executor.fetch_seconds(mixed, 256)
        assert seconds > 0
        assert executor.remote_rows == 8
        assert executor.tier_seconds["cold"] > 0
        assert executor.remote_seconds > 0
        # Remote network time is part of the fetch total.
        assert executor.remote_seconds < seconds

    def test_replica_id_validated(self, data, model):
        shards = make_shards(data, 2)
        with pytest.raises(FleetError):
            BatchExecutor(shards, 5, data, model, mode="precomputed")


class TestReplicaServer:
    def make_replica(self, data, model, shards, replica_id=0,
                     **kwargs):
        executor = BatchExecutor(shards, replica_id, data, model,
                                 mode="precomputed", cache_ratio=0.0)
        return ReplicaServer(replica_id, shards, executor,
                             policy=BatchPolicy(max_batch_size=4,
                                                max_wait=1e-3),
                             **kwargs)

    def test_dispatch_serves_fifo_and_stamps_replica(self, data,
                                                     model):
        shards = make_shards(data, 2)
        replica = self.make_replica(data, model, shards, replica_id=1)
        owned = shards.shard_vertices(1)
        for i in range(4):
            ok = replica.submit(
                InferenceRequest(i, int(owned[i]), arrival=i * 1e-4))
            assert ok
        assert replica.next_dispatch_time(False) == 0.0  # full batch
        row = replica.dispatch(clock=5e-4)
        assert [r.request_id for r in row.requests] == [0, 1, 2, 3]
        assert row.vertices.tolist() == [int(v) for v in owned[:4]]
        assert len(row.predictions) == 4 and row.batch_size == 4
        assert row.replica == 1 and row.completion > 5e-4
        assert replica.completed == 4
        assert replica.free_at == row.completion
        # The row reads as the responses the dispatch answered.
        responses = list(row)
        assert [r.request.request_id for r in responses] == [0, 1, 2, 3]
        assert all(r.replica == 1 and r.completion == row.completion
                   for r in responses)

    def test_bounded_queue_rejects(self, data, model):
        shards = make_shards(data, 1, name="hash")
        replica = self.make_replica(data, model, shards, max_queue=2)
        for i in range(2):
            assert replica.submit(InferenceRequest(i, 0, 0.0))
        assert not replica.submit(InferenceRequest(9, 0, 0.0))
        assert replica.rejected == 1
        assert replica.queue_depth == 2

    def test_accepting_follows_every_flag_writer(self, data, model):
        """``accepting`` is kept, not derived: ``crash`` / ``recover``
        and the ``active`` / ``draining`` setters each set it again."""
        shards = make_shards(data, 1, name="hash")
        replica = self.make_replica(data, model, shards)

        def derived():
            return replica.alive and replica.active \
                and not replica.draining

        assert replica.accepting
        for write in (lambda: setattr(replica, "active", False),
                      lambda: setattr(replica, "active", True),
                      lambda: setattr(replica, "draining", True),
                      lambda: replica.crash(1e-3, 5e-3),
                      lambda: setattr(replica, "draining", False),
                      lambda: replica.recover(6e-3),
                      lambda: setattr(replica, "active", False),
                      lambda: replica.crash(7e-3, 1e-3),
                      lambda: replica.recover(8e-3)):
            write()
            assert replica.accepting == derived()
        assert not replica.accepting              # still inactive

    def test_router_sanitizer_names_a_stale_accepting(self, data, model):
        """A direct ``alive`` write skips ``crash``: the router's
        sanitizer (on for the suite) names the replica."""
        shards = make_shards(data, 1, name="hash")
        replica = self.make_replica(data, model, shards)
        router = Router(shards, [replica])
        replica.alive = False
        with pytest.raises(SanitizerError, match="replica 0"):
            router.route(InferenceRequest(0, 0, 0.0))

    def test_crash_drains_queue_and_stops_accepting(self, data, model):
        shards = make_shards(data, 1, name="hash")
        replica = self.make_replica(data, model, shards)
        for i in range(3):
            replica.submit(InferenceRequest(i, 0, 0.0))
        orphans = replica.crash(clock=1e-3, down_seconds=5e-3)
        assert [r.request_id for r in orphans] == [0, 1, 2]
        assert replica.queue_depth == 0
        assert not replica.accepting
        assert replica.next_dispatch_time(True) is None
        replica.recover(clock=6e-3)
        assert replica.accepting
        assert replica.crashes == 1
        assert replica.down_seconds == 5e-3

    def test_crash_and_recover_reset_the_cached_dispatch_time(
            self, data, model):
        """``crash`` and ``recover`` write ``alive`` and ``free_at``,
        two inputs of ``next_dispatch_time``, so both reset
        ``ready_at`` (see tests/serve/test_ready_cache.py) — also for a
        request handed to the node while it was down."""
        shards = make_shards(data, 1, name="hash")
        replica = self.make_replica(data, model, shards)
        replica.submit(InferenceRequest(0, 0, arrival=0.0))
        assert replica.refresh(False) == pytest.approx(1e-3)
        replica.crash(clock=5e-4, down_seconds=5e-3)
        assert replica.ready_at is None
        replica.submit(InferenceRequest(1, 0, arrival=6e-4))
        assert replica.refresh(False) == float("inf")   # down
        replica.recover(clock=5.5e-3)
        assert replica.ready_at is None
        assert replica.refresh(False) == 5.5e-3

    def test_partial_batch_waits_for_deadline(self, data, model):
        shards = make_shards(data, 1, name="hash")
        replica = self.make_replica(data, model, shards)
        replica.submit(InferenceRequest(0, 0, arrival=2e-3))
        # Not draining: flush at arrival + max_wait.
        assert replica.next_dispatch_time(False) \
            == pytest.approx(3e-3)
        # Draining: flush as soon as the server is free.
        assert replica.next_dispatch_time(True) == replica.free_at

    def test_zero_traffic_report_has_null_latency(self, data, model):
        shards = make_shards(data, 2)
        replica = self.make_replica(data, model, shards)
        report = replica.report()
        assert isinstance(report, ReplicaReport)
        assert report.completed == 0
        assert report.latency_mean is None
        assert report.latency_p50 is None
        assert report.latency_p99 is None
        assert report.latency_max is None
        # ... and it still serializes (JSON null, not an exception).
        import json
        assert json.loads(json.dumps(report.to_dict()))[
            "latency_p99"] is None

    def test_executor_shard_mismatch_rejected(self, data, model):
        shards = make_shards(data, 2)
        executor = BatchExecutor(shards, 0, data, model,
                                 mode="precomputed")
        with pytest.raises(FleetError):
            ReplicaServer(1, shards, executor)
