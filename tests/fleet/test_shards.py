"""Shard-ownership round-trips and halo-set correctness."""

import numpy as np
import pytest

from repro import load_dataset
from repro.core import make_partitioner
from repro.errors import FleetError
from repro.fleet import ShardMap
from repro.graph import from_edges
from repro.partition.base import halo_vertices
from repro.partition.replication import k_redundant_replication

PARTITIONERS = ["hash", "metis-v", "metis-ve", "metis-vet"]


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.15)


def halo(shards, shard, hops=1):
    return halo_vertices(shards.graph, shards.assignment, shard, hops)


def shard_map(data, name, parts=4):
    part = make_partitioner(name).partition(
        data.graph, parts, split=data.split,
        rng=np.random.default_rng(0))
    return ShardMap(part, data.graph)


class TestOwnershipRoundTrip:
    @pytest.mark.parametrize("name", PARTITIONERS)
    def test_every_vertex_owned_exactly_once(self, data, name):
        shards = shard_map(data, name)
        counts = np.zeros(data.graph.num_vertices, dtype=np.int64)
        for shard in range(shards.num_shards):
            counts[shards.shard_vertices(shard)] += 1
        assert np.array_equal(
            counts, np.ones(data.graph.num_vertices, dtype=np.int64))

    @pytest.mark.parametrize("name", PARTITIONERS)
    def test_owner_agrees_with_assignment(self, data, name):
        shards = shard_map(data, name)
        everyone = np.arange(data.graph.num_vertices)
        owners = shards.owner(everyone)
        assert np.array_equal(owners, shards.assignment)
        # Scalar queries agree with the vectorized answer.
        for v in (0, 1, data.graph.num_vertices - 1):
            assert shards.owner(v) == owners[v]
        # And round-trip: every shard's vertex list maps back to it.
        for shard in range(shards.num_shards):
            vertices = shards.shard_vertices(shard)
            assert (shards.owner(vertices) == shard).all()

    @pytest.mark.parametrize("name", PARTITIONERS)
    def test_sizes_sum_to_graph(self, data, name):
        shards = shard_map(data, name)
        assert shards.shard_sizes().sum() == data.graph.num_vertices

    def test_remote_mask_is_the_ownership_test(self, data):
        """Without a replica matrix a row is remote on a shard exactly
        when another shard owns it (the mask an executor bills by)."""
        shards = shard_map(data, "metis-v")
        query = np.arange(0, data.graph.num_vertices, 3)
        remote = shards.remote_mask(1, query)
        assert np.array_equal(remote, shards.owner(query) != 1)
        assert remote.any() and not remote.all()


class TestHaloSets:
    def make_map(self):
        # A path 0 -> 1 -> 2 -> 3 plus a chord 0 -> 3, symmetrized:
        #   in-neighbors: 0:{1,3} 1:{0,2} 2:{1,3} 3:{2,0}.
        graph = from_edges([0, 1, 2, 0], [1, 2, 3, 3], 4,
                           symmetrize_edges=True)
        from repro.partition.base import PartitionResult
        assignment = np.array([0, 0, 1, 1])
        return ShardMap(PartitionResult(assignment, 2, "manual"), graph)

    def test_hand_checked_one_hop(self):
        shards = self.make_map()
        # Shard 0 owns {0, 1}; in-neighbors reachable in one hop are
        # {1, 3} u {0, 2} => foreign part {2, 3}.
        assert np.array_equal(halo(shards, 0, hops=1), [2, 3])
        # Shard 1 owns {2, 3}; one hop reaches {1, 3} u {2, 0} =>
        # foreign part {0, 1}.
        assert np.array_equal(halo(shards, 1, hops=1), [0, 1])

    def test_zero_hops_is_empty(self):
        shards = self.make_map()
        assert len(halo(shards, 0, hops=0)) == 0

    def test_halo_never_contains_owned_vertices(self, data):
        shards = shard_map(data, "metis-v")
        for shard in range(shards.num_shards):
            foreign = halo(shards, shard, hops=2)
            assert (shards.owner(foreign) != shard).all()

    def test_halo_grows_with_hops(self, data):
        shards = shard_map(data, "metis-v")
        one = halo(shards, 0, hops=1)
        two = halo(shards, 0, hops=2)
        assert set(one) <= set(two)

    def test_halo_matches_bruteforce_bfs(self, data):
        shards = shard_map(data, "hash")
        graph = data.graph
        in_indptr, in_indices = graph.in_csr()
        owned = set(shards.shard_vertices(2).tolist())
        frontier, reached = set(owned), set(owned)
        for _ in range(2):
            frontier = {
                int(n)
                for v in frontier
                for n in in_indices[in_indptr[v]:in_indptr[v + 1]]
            } - reached
            reached |= frontier
        expected = np.array(sorted(reached - owned))
        assert np.array_equal(halo(shards, 2, hops=2), expected)


def replicated_map(data, source, k):
    part = make_partitioner(source).partition(
        data.graph, 4, split=data.split, rng=np.random.default_rng(0))
    if k is not None:
        part = k_redundant_replication(part, k)
    return ShardMap(part, data.graph)


class TestHolders:
    """``backups`` reads a per-vertex memo; the holders it must keep
    (owner first) are one ``flatnonzero`` over the replica matrix."""

    @staticmethod
    def definition(shards, vertex):
        owner = int(shards.assignment[vertex])
        held = np.flatnonzero(shards.partition.replicas[:, vertex])
        return [owner] + [int(s) for s in held if s != owner]

    @pytest.mark.parametrize("source, k", [
        ("metis-v", 2), ("hash", 3), ("stream-v", None)],
        ids=["metis-v+k2", "hash+k3", "stream-v"])
    @pytest.mark.parametrize("kind", [int, np.int64])
    def test_holders_match_the_replica_matrix(self, data, source, k,
                                              kind):
        shards = replicated_map(data, source, k)
        assert shards.replicated
        # Twice over: the second pass reads the memo the first filled.
        for _ in range(2):
            for vertex in range(shards.num_vertices):
                expected = self.definition(shards, vertex)
                backups = shards.backups(kind(vertex))
                assert [shards.owner(int(vertex)), *backups] == expected
                assert all(type(s) is int for s in backups)

    def test_single_owner_map_has_no_backups(self, data):
        shards = shard_map(data, "metis-v")
        for vertex in (0, np.int64(1), shards.num_vertices - 1):
            assert shards.backups(vertex) == ()


class TestValidation:
    def test_rejects_mismatched_graph(self, data):
        part = make_partitioner("hash").partition(
            data.graph, 4, rng=np.random.default_rng(0))
        other = from_edges([0], [1], 2)
        with pytest.raises(FleetError):
            ShardMap(part, other)

    def test_rejects_non_partition(self, data):
        with pytest.raises(FleetError):
            ShardMap("not a partition", data.graph)

    def test_rejects_bad_shard_id(self, data):
        shards = shard_map(data, "hash")
        with pytest.raises(FleetError):
            shards.shard_vertices(99)

    def test_locality_of_owned_query_is_one(self, data):
        shards = shard_map(data, "metis-v")
        owned = shards.shard_vertices(0)[:10]
        assert shards.locality(0, owned) == 1.0
        assert shards.locality(1, owned) == 0.0
        assert shards.locality(3, np.array([], dtype=np.int64)) == 1.0
