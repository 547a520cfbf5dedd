"""Golden Figure 4/5 workloads, pinned field for field.

``tests/golden/workload_machines.json`` holds every
:class:`~repro.partition.MachineWorkload` field of one
:func:`~repro.partition.measure_workload` epoch on ``ogb-arxiv`` x0.3
(k = 4, fanout (10, 10), batch 256) for hash, metis-v, stream-v and
stream-b, each plain, under ``k_redundant_replication(2)`` and under
``partition_aware_replication(0.05)``: the rows Figures 4 and 5 plot
and the replication ablation sums.  The file was generated before the
workload count, the training engine's remote accounting and SALIENT++
pre-sampling moved onto the one ``batch_traffic`` count, so any later
change to that count must reproduce these numbers exactly.

Regenerate (only for an *intentional* change of the workload model,
and say so in the commit message)::

    PYTHONPATH=src python tests/partition/test_golden_workload.py
"""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import make_partitioner
from repro.graph import load_dataset
from repro.partition import (k_redundant_replication, measure_workload,
                             partition_aware_replication)
from repro.sampling import NeighborSampler

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" \
    / "workload_machines.json"

PARTITIONERS = ("hash", "metis-v", "stream-v", "stream-b")
REPLICAS = ("plain", "k2", "repl0.05")
CASES = [(name, replica) for name in PARTITIONERS for replica in REPLICAS]


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ogb-arxiv", scale=0.3)


def _machines(dataset, name, replica):
    sampler = NeighborSampler((10, 10))
    partition = make_partitioner(name).partition(
        dataset.graph, 4, split=dataset.split,
        rng=np.random.default_rng(1))
    if replica == "k2":
        partition = k_redundant_replication(partition, 2)
    elif replica == "repl0.05":
        partition = partition_aware_replication(
            dataset, partition, sampler, 0.05, rng=np.random.default_rng(3))
    report = measure_workload(dataset, partition, sampler, batch_size=256,
                              rng=np.random.default_rng(2))
    return [asdict(machine) for machine in report.machines]


@pytest.mark.parametrize("case", CASES, ids="/".join)
def test_machine_workloads_match_golden(dataset, case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _machines(dataset, *case) == golden["/".join(case)]


if __name__ == "__main__":
    data = load_dataset("ogb-arxiv", scale=0.3)
    GOLDEN_PATH.write_text(json.dumps(
        {"/".join(case): _machines(data, *case) for case in CASES},
        indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
