"""Common types for graph partitioners.

A partitioning assigns every vertex an owning machine (``assignment``).
Some methods additionally *replicate* vertices: PaGraph-style streaming
(Stream-V) caches each training vertex's L-hop neighborhood locally, so a
vertex can be readable on machines other than its owner.  Replication is
recorded as a boolean matrix so the workload model can distinguish "local
because owned" from "local because cached".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..errors import PartitionError
from ..perf.choice import choice_sets
from ..perf.profiler import wall_clock
from ..perf.unique import sorted_unique

__all__ = ["PartitionResult", "Partitioner", "check_num_parts",
           "gather_rows", "halo_vertices"]


def check_num_parts(num_vertices, num_parts):
    """Validate a partition count against the vertex count."""
    if num_parts < 1:
        raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts > num_vertices:
        raise PartitionError(
            f"cannot split {num_vertices} vertices into {num_parts} parts")


def gather_rows(indptr, indices, rows, cap=None, rng=None):
    """``indices`` of the CSR rows ``rows``, concatenated in row order.

    ``cap`` keeps at most ``cap`` entries of each row.  A longer row
    keeps its first ``cap`` without ``rng``; with one, it keeps the
    entries ``rng.choice(row, cap, replace=False)`` picks, in CSR order.
    The capped rows are drawn in one call
    (:func:`~repro.perf.choice_sets`), which leaves ``rng`` as one
    ``choice`` per capped row in turn would.
    """
    starts = indptr[rows]
    degrees = indptr[rows + 1] - starts
    counts = degrees if cap is None else np.minimum(degrees, cap)
    ends = counts.cumsum()
    # Output element i, at offset o of row g, reads
    # indices[starts[g] + o].
    offsets = (np.repeat(starts - ends + counts, counts)
               + np.arange(ends[-1] if len(ends) else 0))
    if rng is not None and cap is not None:
        capped = np.flatnonzero(degrees > cap)
        if len(capped):
            offsets[(ends[capped] - cap)[:, None] + np.arange(cap)] = (
                choice_sets(rng, degrees[capped], cap)
                + starts[capped, None])
    return indices[offsets]


def halo_vertices(graph, assignment, part, hops=1):
    """Foreign vertex ids within ``hops`` in-edge steps of the vertices
    ``assignment`` gives to ``part`` (sorted ascending; never an owned
    vertex).  At one hop these are the boundary in-neighbors a GNN layer
    over ``part``'s vertices aggregates from another machine."""
    in_indptr, in_indices = graph.in_csr()
    reached = np.asarray(assignment) == part
    owned = reached.copy()
    frontier = np.flatnonzero(reached)
    for _ in range(hops):
        if len(frontier) == 0:
            break
        neighbors = gather_rows(in_indptr, in_indices, frontier)
        new = sorted_unique(neighbors[~reached[neighbors]])
        reached[new] = True
        frontier = new
    return np.flatnonzero(reached & ~owned)


@dataclass
class PartitionResult:
    """Outcome of partitioning one graph.

    Attributes
    ----------
    assignment:
        ``int64 (n,)`` owning partition per vertex, in ``0..k-1``.
    num_parts:
        Partition count ``k``.
    method:
        Human-readable method name ("hash", "metis-v", "stream-b", ...).
    seconds:
        Wall-clock partitioning time — the quantity of Figure 6.
    replicas:
        Optional ``bool (k, n)`` matrix; ``replicas[p, v]`` means vertex
        ``v``'s data is available on machine ``p`` (always true for the
        owner).  ``None`` means "owner only".
    """

    assignment: np.ndarray
    num_parts: int
    method: str
    seconds: float = 0.0
    replicas: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if len(self.assignment) and (self.assignment.min() < 0 or
                                     self.assignment.max() >= self.num_parts):
            raise PartitionError("assignment ids out of range")
        if self.replicas is not None:
            self.replicas = np.asarray(self.replicas, dtype=bool)
            if self.replicas.shape != (self.num_parts, len(self.assignment)):
                raise PartitionError("replicas matrix has wrong shape")
            # The owner always holds its vertices.
            self.replicas[self.assignment,
                          np.arange(len(self.assignment))] = True

    @property
    def num_vertices(self):
        return len(self.assignment)

    def part_vertices(self, part):
        """Vertex ids owned by partition ``part``."""
        return np.flatnonzero(self.assignment == part)

    def owner(self, vertices):
        """Owning partition of ``vertices`` — a scalar for a scalar id,
        an ``int64`` array for an array (the serving fleet's
        shard-ownership query)."""
        owners = self.assignment[np.asarray(vertices, dtype=np.int64)]
        return owners if owners.ndim else int(owners)

    def sizes(self):
        """Vertices owned per partition as an ``int64 (k,)`` array."""
        return np.bincount(self.assignment, minlength=self.num_parts)

    def is_local(self, part, vertices):
        """Boolean array: is each vertex readable on ``part`` without
        network traffic (owned or replicated there)?"""
        vertices = np.asarray(vertices, dtype=np.int64)
        local = self.assignment[vertices] == part
        if self.replicas is not None:
            local |= self.replicas[part, vertices]
        return local

    def replication_factor(self):
        """Average number of machines holding each vertex (1.0 = no
        replication)."""
        if self.replicas is None:
            return 1.0
        return float(self.replicas.sum() / max(self.num_vertices, 1))


class Partitioner(abc.ABC):
    """Base class for all partitioning methods.

    Subclasses implement :meth:`_partition`; the public :meth:`partition`
    wraps it with validation and wall-clock timing.
    """

    name = "abstract"

    @abc.abstractmethod
    def _partition(self, graph, num_parts, split, rng):
        """Return a :class:`PartitionResult` (``seconds`` filled by caller)."""

    def partition(self, graph, num_parts, split=None, rng=None):
        """Partition ``graph`` into ``num_parts`` machines.

        Parameters
        ----------
        graph:
            :class:`~repro.graph.csr.CSRGraph`.
        num_parts:
            Number of machines ``k``.
        split:
            Optional :class:`~repro.graph.splits.Split`; required by
            methods that balance train/val/test vertices.
        rng:
            :class:`numpy.random.Generator`; defaults to a fresh seeded
            generator.
        """
        check_num_parts(graph.num_vertices, num_parts)
        if rng is None:
            rng = np.random.default_rng(0)
        start = wall_clock()
        result = self._partition(graph, num_parts, split, rng)
        result.seconds = wall_clock() - start
        result.method = self.name
        return result
