"""Every dataset the library builds, pinned byte for byte.

``tests/golden/dataset_digests.json`` holds the sha256 of each array a
:class:`~repro.graph.datasets.Dataset` carries — ``indptr``,
``indices``, ``features``, ``labels`` and the three split masks — for
all nine registered datasets at scale 0.25 (their per-name seeds) and
for the four shapes the benchmark of record sets up (seed 0).  The file
was generated at the commit *before* edge lists became CSR by one
packed-key sort, so a change to graph construction must reproduce those
datasets exactly — and with them every partition, batch and simulated
time downstream.  ``test_no_cache_builds_fresh_equal_dataset`` only
compares two builds of the same code; this compares across commits.

Regenerate (only for an *intentional* change of a dataset, and say so
in the commit message)::

    PYTHONPATH=src python tests/graph/test_dataset_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph import dataset_names, load_dataset

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" \
    / "dataset_digests.json"

#: (dataset, scale, seed): every registered dataset small, then the
#: benchmark's set-up shapes (train-sage / fleet-*, train-gat,
#: serve-sampled, partition-suite).
CASES = [(name, 0.25, None) for name in dataset_names()] \
    + [("ogb-products", 2.0, 0), ("ogb-arxiv", 1.0, 0),
       ("ogb-arxiv", 2.0, 0), ("lj-large", 0.5, 0)]


def _key(name, scale, seed):
    return f"{name}x{scale:g}" + ("" if seed is None else f"/seed{seed}")


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _digests(name, scale, seed):
    data = load_dataset(name, scale=scale, seed=seed, cache=False)
    arrays = {"indptr": data.graph.indptr, "indices": data.graph.indices,
              "features": data.features, "labels": data.labels,
              "train_mask": data.split.train_mask,
              "val_mask": data.split.val_mask,
              "test_mask": data.split.test_mask}
    return {field: _sha256(array) for field, array in arrays.items()}


@pytest.mark.parametrize("case", CASES, ids=lambda case: _key(*case))
def test_dataset_matches_golden(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digests(*case) == golden[_key(*case)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {_key(*case): _digests(*case) for case in CASES}, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
