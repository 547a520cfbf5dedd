"""``batch_traffic``: the one count of a sampled batch's remote traffic.

The generated test holds it to a per-vertex Python count over small
power-law graphs, every partitioner family and every replica scheme;
the size tests pin the argument checks of the three pre-sampling loops
built on the same batches.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError, TransferError
from repro.graph import load_dataset, power_law_graph, split_vertices
from repro.partition import (HashPartitioner, MetisPartitioner,
                             StreamVPartitioner, batch_traffic,
                             k_redundant_replication, measure_workload,
                             partition_aware_replication,
                             remote_access_frequencies)
from repro.sampling import NeighborSampler
from repro.transfer.tiered import presample_frequencies

PARTITIONERS = {"hash": HashPartitioner,
                "metis-v": lambda: MetisPartitioner("v"),
                "stream-v": StreamVPartitioner}


@st.composite
def traffic_cases(draw):
    return {
        "n": draw(st.integers(min_value=24, max_value=160)),
        "degree": draw(st.integers(min_value=2, max_value=6)),
        "k": draw(st.integers(min_value=2, max_value=4)),
        "partitioner": draw(st.sampled_from(sorted(PARTITIONERS))),
        "replica": draw(st.sampled_from(("plain", "k2", "repl"))),
        "fanout": tuple(draw(st.lists(st.integers(min_value=1, max_value=6),
                                      min_size=1, max_size=3))),
        "batch": draw(st.integers(min_value=1, max_value=24)),
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
    }


def brute_force(partition, part, subgraph):
    """(served, local, remote edges, remote inputs, messages), one
    vertex at a time."""
    def local(vertex):
        return (partition.assignment[vertex] == part
                or (partition.replicas is not None
                    and bool(partition.replicas[part, vertex])))

    served = [0] * partition.num_parts
    local_expansions = remote_edges = messages = 0
    for block in subgraph.blocks:
        owners = set()
        for row, vertex in enumerate(block.dst_nodes.tolist()):
            if local(vertex):
                local_expansions += 1
                continue
            owner = int(partition.assignment[vertex])
            served[owner] += 1
            owners.add(owner)
            remote_edges += int(block.indptr[row + 1] - block.indptr[row])
        messages += len(owners)
    remote_inputs = [v for v in subgraph.input_nodes.tolist()
                     if not local(v)]
    messages += len({int(partition.assignment[v]) for v in remote_inputs})
    return served, local_expansions, remote_edges, remote_inputs, messages


@given(traffic_cases())
@settings(max_examples=40, deadline=None)
def test_matches_per_vertex_count(case):
    rng = np.random.default_rng(case["seed"])
    graph, _ = power_law_graph(case["n"], case["degree"], rng,
                               num_communities=3)
    split = split_vertices(case["n"], rng)
    k = case["k"]
    partition = PARTITIONERS[case["partitioner"]]().partition(
        graph, k, split=split, rng=rng)
    sampler = NeighborSampler(case["fanout"])
    if case["replica"] == "k2":
        partition = k_redundant_replication(partition, 2)
    elif case["replica"] == "repl":
        dataset = SimpleNamespace(graph=graph, train_ids=split.train_ids,
                                  num_vertices=graph.num_vertices)
        partition = partition_aware_replication(
            dataset, partition, sampler, 0.1, rng=rng, epochs=1,
            batch_size=16)
    part = int(rng.integers(k))
    seeds = rng.choice(case["n"], size=min(case["batch"], case["n"]),
                       replace=False)
    subgraph = sampler.sample(graph, seeds, rng)

    traffic = batch_traffic(partition, part, subgraph)
    served, local, edges, inputs, messages = brute_force(
        partition, part, subgraph)
    assert traffic.served.tolist() == served
    assert traffic.served[part] == 0
    assert traffic.local_expansions == local
    assert traffic.remote_edges == edges
    assert traffic.remote_inputs.tolist() == inputs
    assert traffic.messages == messages
    assert traffic.local_expansions + traffic.served.sum() \
        == sum(block.num_dst for block in subgraph.blocks)


@pytest.fixture(scope="module")
def small():
    dataset = load_dataset("ogb-arxiv", scale=0.15)
    partition = HashPartitioner().partition(
        dataset.graph, 4, rng=np.random.default_rng(0))
    return dataset, partition, NeighborSampler((5, 5))


#: (loop, error, argument, bad value): every pre-sampling loop rejects
#: a batch size or pass count below one, naming the argument.
SIZE_CASES = [
    ("measure_workload", PartitionError, "batch_size", 0),
    ("measure_workload", PartitionError, "batch_size", -5),
    ("remote_access_frequencies", PartitionError, "batch_size", 0),
    ("remote_access_frequencies", PartitionError, "epochs", -1),
    ("partition_aware_replication", PartitionError, "batch_size", 0),
    ("partition_aware_replication", PartitionError, "epochs", 0),
    ("presample_frequencies", TransferError, "batch_size", 0),
    ("presample_frequencies", TransferError, "epochs", 0),
]


@pytest.mark.parametrize(
    "loop, error, argument, value", SIZE_CASES,
    ids=[f"{loop}-{argument}={value}"
         for loop, _error, argument, value in SIZE_CASES])
def test_sizes_below_one_rejected(small, loop, error, argument, value):
    dataset, partition, sampler = small
    rng = np.random.default_rng(0)
    calls = {
        "measure_workload": lambda **kw: measure_workload(
            dataset, partition, sampler, rng=rng, **kw),
        "remote_access_frequencies": lambda **kw: remote_access_frequencies(
            dataset, partition, sampler, rng, **kw),
        "partition_aware_replication":
            lambda **kw: partition_aware_replication(
                dataset, partition, sampler, 0.05, rng=rng, **kw),
        "presample_frequencies": lambda **kw: presample_frequencies(
            dataset.graph, sampler, dataset.train_ids, rng, **kw),
    }
    with pytest.raises(error, match=f"{argument} must be >= 1"):
        calls[loop](**{argument: value})
