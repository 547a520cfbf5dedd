"""Golden partition assignments, pinned byte for byte.

``tests/golden/partition_assignments.json`` holds the sha256 of the
``int64`` assignment every Table-3 partitioner produces on the graphs
the benchmark of record sets up: the six partitioners at k = 4 and 8 on
``lj-large`` x0.5, metis-ve on ``ogb-products`` x2 and metis-v on
``ogb-arxiv`` x1, all from seed 0.  The file was generated at the
commit *before* multilevel METIS moved onto the connectivity table, so
a partitioner optimisation must reproduce those assignments exactly —
and with them Table 3, Fig. 4-8 and every simulated time.

Regenerate (only for an *intentional* change of a partitioner's
output, and say so in the commit message)::

    PYTHONPATH=src python tests/partition/test_golden_assignments.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import make_partitioner
from repro.graph import load_dataset

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" \
    / "partition_assignments.json"

SEED = 0
SUITE = ("hash", "metis-v", "metis-ve", "metis-vet", "stream-v",
         "stream-b")
#: (dataset, scale, partitioner, k) — the benchmark's partition-suite
#: plan, then the set-up partitions of train-sage and fleet-*.
CASES = [("lj-large", 0.5, name, k) for k in (4, 8) for name in SUITE] \
    + [("ogb-products", 2.0, "metis-ve", 4),
       ("ogb-arxiv", 1.0, "metis-v", 4)]


def _key(dataset, scale, name, k):
    return f"{dataset}x{scale:g}/{name}/k{k}"


def _digest(dataset, scale, name, k):
    data = load_dataset(dataset, scale=scale, seed=SEED)
    result = make_partitioner(name).partition(
        data.graph, k, split=data.split, rng=np.random.default_rng(SEED))
    assignment = np.ascontiguousarray(result.assignment, dtype="<i8")
    return hashlib.sha256(assignment.tobytes()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=lambda case: _key(*case))
def test_assignment_matches_golden(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digest(*case) == golden[_key(*case)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {_key(*case): _digest(*case) for case in CASES}, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
