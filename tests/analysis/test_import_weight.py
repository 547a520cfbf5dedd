"""``import repro`` and the library's runs never load ``scipy.sparse``.

The kernels bind scipy's compiled ``csr_matvecs`` by loading the
``_sparsetools`` extension file itself (``repro.kernels.registry``), and
METIS builds its levels as plain CSR arrays, so running
``scipy/sparse/__init__.py`` (~20 MB of RSS, ~310 modules) buys the
library nothing.  Each check runs in a fresh interpreter: the test
process itself has long since imported ``scipy.sparse``.
"""

import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

SMOKE_RUNS = """
import sys

import numpy as np

import repro

def check(step):
    assert "scipy.sparse" not in sys.modules, f"{step} loaded scipy.sparse"

check("import repro")

from repro import load_dataset
from repro.core import Trainer
from repro.core.config import TrainingConfig
from repro.fleet import FleetEngine
from repro.graph import from_edges
from repro.partition import metis_partition
from repro.serve import BatchPolicy, LoadGenerator

rng = np.random.default_rng(0)
n = 120
src, dst = rng.integers(0, n, 600), rng.integers(0, n, 600)
loops = np.arange(0, n, 5)
graphs = {
    "symmetric": from_edges(src, dst, n, symmetrize_edges=True),
    "directed": from_edges(src, dst, n),
    "looped multigraph": from_edges(
        np.tile(np.concatenate([src, loops]), 2),
        np.tile(np.concatenate([dst, loops]), 2), n,
        symmetrize_edges=True, dedup=False, drop_self_loops=False),
}
for kind, graph in graphs.items():
    metis_partition(graph, 4, rng=np.random.default_rng(1),
                    coarsen_to=16)
    check(f"METIS on the {kind} graph")

data = load_dataset("ogb-arxiv", scale=0.1)
model = Trainer(data, TrainingConfig(
    model="graphsage", epochs=1, num_workers=2, batch_size=64,
    fanout=(5, 5), partitioner="hash", seed=3)).run().model
check("a sampled Trainer epoch")

trace = LoadGenerator(data.test_ids, rate=2000.0, num_requests=64,
                      seed=3).generate()
report = FleetEngine(data, model, partition="hash", num_replicas=2,
                     mode="precomputed",
                     policy=BatchPolicy(max_batch_size=8, max_wait=0.001),
                     seed=3).run(trace)
assert report.completed == len(trace)
check("a precomputed 2-replica fleet run")
print("ok")
"""


def _run(code):
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC_DIR), "PATH": "",
                               "OPENBLAS_NUM_THREADS": "1"})


def test_import_repro_leaves_scipy_sparse_out():
    done = _run("import sys\n"
                "import repro\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.startswith('scipy.sparse')))\n")
    assert done.returncode == 0, done.stderr
    # Not even the compiled extension the kernels run on: listed before
    # its package, it would leave a later ``import scipy.sparse``
    # without the ``_sparsetools`` attribute.
    assert done.stdout.strip() == "[]"


def test_smoke_runs_leave_scipy_sparse_out():
    done = _run(SMOKE_RUNS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ok")
