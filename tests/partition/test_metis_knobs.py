"""METIS knobs out of range raise a typed error naming the knob.

Each of these used to pass silently or fail untyped: a ``nan``
imbalance skewed the part sizes, a negative one was accepted, a
negative pass count skipped FM, a fractional one raised a bare
``TypeError``, a ``nan`` ``coarsen_to`` never coarsened, and
``num_parts=0`` reached ``argmin`` of an empty sequence.
"""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph import load_dataset
from repro.partition import MetisPartitioner, metis_clusters, metis_partition

pytest.importorskip("scipy")


@pytest.fixture(scope="module")
def graph():
    return load_dataset("ogb-arxiv", scale=0.1).graph


def _partition(graph, **knobs):
    return metis_partition(graph, knobs.pop("num_parts", 4),
                           rng=np.random.default_rng(0), **knobs)


@pytest.mark.parametrize("knob, value", [
    ("imbalance", float("nan")),
    ("imbalance", -0.5),
    ("imbalance", float("inf")),
    ("imbalance", "0.1"),
    ("refine_passes", -1),
    ("refine_passes", 1.5),
    ("coarsen_to", float("nan")),
    ("coarsen_to", 0),
    ("num_parts", 0),
    ("num_parts", 2.0),
])
def test_metis_partition_rejects(graph, knob, value):
    with pytest.raises(PartitionError, match=knob):
        _partition(graph, **{knob: value})


def test_metis_clusters_rejects_zero_clusters(graph):
    with pytest.raises(PartitionError, match="num_parts"):
        metis_clusters(graph, 0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("knob, value", [
    ("imbalance", float("nan")),
    ("imbalance", -0.5),
    ("refine_passes", -1),
    ("refine_passes", 1.5),
])
def test_partitioner_rejects_at_construction(knob, value):
    with pytest.raises(PartitionError, match=knob):
        MetisPartitioner("v", **{knob: value})


def test_boundary_and_numpy_values_are_accepted(graph):
    """Zero slack, zero passes, numpy scalars: all in range."""
    sizes = [np.bincount(_partition(graph, **knobs), minlength=2) for knobs
             in (dict(imbalance=0, refine_passes=0),
                 dict(imbalance=np.float64(0.1), coarsen_to=np.int64(16),
                      num_parts=np.int64(2)))]
    assert all(s.sum() == graph.num_vertices for s in sizes)
    MetisPartitioner("vet", imbalance=np.float32(0.2),
                     refine_passes=np.int64(1))
