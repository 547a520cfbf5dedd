"""Shared configuration for the benchmark suite.

Every benchmark reproduces one table or figure of the paper: it runs the
real code path, prints the same rows/series the paper reports, and wraps
the work in ``benchmark.pedantic(..., rounds=1)`` so pytest-benchmark
records its wall time.  Scales are chosen so the full suite finishes in
minutes on a laptop.

Run a single benchmark standalone for readable output::

    python benchmarks/bench_fig04_comp_load.py
"""

from __future__ import annotations

import sys

from repro import TrainingConfig
from repro.graph import load_dataset

#: Dataset scale for benchmarks (fraction of the registered stand-in
#: size, itself a scaled stand-in for the paper's datasets).
SCALE = 0.5

#: Datasets with ground-truth labels — used for partitioning and batch
#: preparation experiments, exactly as in §4.
LABELED = ("reddit", "ogb-arxiv", "ogb-products", "amazon")

#: Feature-heavy datasets used for the transfer experiments (§4).
TRANSFER = ("livejournal", "lj-large", "lj-links", "enwiki-links")

#: The six partitioning methods of Table 3.
PARTITIONERS = ("hash", "metis-v", "metis-ve", "metis-vet", "stream-v",
                "stream-b")


def bench_dataset(name, scale=SCALE):
    """Load (and cache) a benchmark dataset."""
    return load_dataset(name, scale=scale)


def quick_config(**overrides):
    """Training config tuned for benchmark wall time: modest fanout and
    epoch counts, 4 simulated machines like the paper's cluster."""
    defaults = dict(epochs=12, batch_size=256, fanout=(10, 10),
                    num_workers=4, partitioner="metis-ve",
                    transfer="zero-copy", pipeline="bp+dt", seed=0)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its
    value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def bench_cli(name):
    """``__main__`` of a registered bench's wrapper script: the script
    *is* ``repro bench <name>``, flags (``--quick``, ``--sanitize``,
    ``--out``) and exit code included."""
    from repro.cli import main

    sys.exit(main(["bench", name, *sys.argv[1:]]))
