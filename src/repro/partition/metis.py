"""A multilevel, multi-constraint graph partitioner ("Metis-extend").

This is our from-scratch stand-in for METIS [Karypis & Kumar 1998] plus
the constraint extensions the paper calls *Metis-extend* (§5.2): the
partitioner minimizes edge cut while keeping *every column* of a vertex
weight matrix balanced across partitions.  The three paper variants are
thin wrappers choosing the constraint columns:

* **Metis-V**  — balance training-vertex counts (DistDGL's core idea);
* **Metis-VE** — additionally balance vertex degrees (edge counts);
* **Metis-VET** — additionally balance validation/test vertex counts
  (SALIENT++).

The classic three phases are implemented directly:

1. *Coarsening* by heavy-edge matching, accumulating edge weights and
   constraint vectors, until the graph is small;
2. *Initial partitioning* of the coarsest graph by greedy streaming
   assignment in BFS order (maximize connectivity to the target part,
   subject to capacity);
3. *Uncoarsening with refinement*: project the assignment up one level at
   a time and run boundary Fiduccia–Mattheyses passes — move a boundary
   vertex to the neighboring part with the largest positive cut gain
   whose capacities all still hold.

Phase 3 never rescans a vertex's edges.  Each level builds one dense
``(n, k)`` *connectivity table* — ``conn[v, p]``, the weight of ``v``'s
edges into part ``p`` — and every move, in the FM passes and in the
balance pass alike, patches it along the moved vertex's row
(:class:`_Level`).  Edge weights are sums of unit edges, so the table
is integer-valued, each patch is exact whatever the order, and a gain
read from it equals the one a fresh scan of the row would sum.  FM
visits only vertices a conservative flag list says may be tied more
heavily to another part than to their own, and scores each as python
floats; the balance pass scores its sampled candidates with one
gather.  The loops this replaced live on, verbatim, as the oracle
in ``tests/partition/_metis_oracle.py``: assignments and the order of
every ``rng`` draw are byte-identical to theirs.
"""

from __future__ import annotations

import numbers
from collections import deque
from typing import NamedTuple

import numpy as np

from ..errors import PartitionError, SanitizerError
from ..graph.csr import packed_csr
from ..perf import FLAGS
from .base import PartitionResult, Partitioner

__all__ = ["metis_partition", "MetisPartitioner", "metis_clusters"]

_INT32_MAX = np.iinfo(np.int32).max


class _CSR(NamedTuple):
    """One level's weighted adjacency: the four fields of a CSR matrix.

    Every level reads only these, so a scipy ``csr_matrix`` passes for
    one.  The index arrays follow scipy's dtype rule (int32 while ``n``
    and the entry count fit), the ``data`` weights are float64 sums of
    unit edges."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def _csr(data, indices, indptr, n):
    """A square :class:`_CSR` with scipy's index dtype."""
    index = np.int32 if max(n, len(indices)) <= _INT32_MAX else np.int64
    return _CSR(data, indices.astype(index), indptr.astype(index), (n, n))


def _runs(key):
    """Distinct values of sorted ``key`` and their run lengths, as the
    float64 weights of unit edges summed."""
    fresh = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    return key[starts], np.diff(starts, append=len(key)).astype(np.float64)


def _with_transpose(n, rows, cols):
    """``adj.maximum(adj.T)`` of a directed 0/1 adjacency, by a union
    of packed ``(row << shift) | col`` keys: every pair stored in either
    direction once, weighted by the larger of its two multiplicities.

    Rows come out as scipy's compiled ``csr_maximum_csr`` writes them.
    When every row's columns strictly increase it merges, so columns
    ascend.  Otherwise it scatters each row through a linked list, so
    the columns only the transpose adds come first, descending, then
    the row's own columns in reverse order of first appearance.
    """
    shift = max(n - 1, 1).bit_length()
    own = (rows << shift) | cols
    order = np.argsort(own, kind="stable")
    own_sorted = own[order]
    mirrored = np.sort((cols << shift) | rows)
    key = np.union1d(own_sorted, mirrored)
    first = own_sorted.searchsorted(key)
    held = own_sorted.searchsorted(key, "right") - first
    data = np.maximum(held, mirrored.searchsorted(key, "right")
                      - mirrored.searchsorted(key)).astype(np.float64)
    row, col = key >> shift, key & ((1 << shift) - 1)
    if (own[1:] > own[:-1]).all():
        return row, col, data
    stored = held > 0
    rank = col.copy()
    rank[stored] = order[first[stored]]  # a stored pair's first slot
    scatter = np.lexsort((-rank, stored, row))
    return row[scatter], col[scatter], data[scatter]


def _weighted_adjacency(graph):
    """The graph as a symmetric weighted :class:`_CSR` (weight 1 per
    edge, symmetrized so matching sees every neighbor), self-loops
    dropped by a mask; every other entry keeps its place in its row."""
    n = graph.num_vertices
    indptr, cols = graph.indptr, graph.indices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if graph.is_symmetric:
        data = np.ones(len(cols))
    else:
        rows, cols, data = _with_transpose(n, rows, cols)
        indptr = None
    loop = cols == rows
    if loop.any():
        if (np.diff(rows[loop]) == 0).any():
            # A row holding its self-loop twice (a symmetrized
            # multigraph) has always had every duplicate entry summed
            # first: each row sorted, and a repeated pair's weight the
            # length of its run.
            shift = max(n - 1, 1).bit_length()
            key, data = _runs(np.sort((rows << shift) | cols))
            rows, cols = key >> shift, key & ((1 << shift) - 1)
            loop = cols == rows
        keep = ~loop
        rows, cols, data = rows[keep], cols[keep], data[keep]
        indptr = None
    if indptr is None:  # the rows changed: count them again
        indptr = rows.searchsorted(np.arange(n + 1))
    return _csr(data, cols, indptr, n)


def _heavy_edge_matching(adj, rng):
    """Greedy heavy-edge matching.

    Returns ``cmap`` (coarse id per fine vertex) and the coarse vertex
    count.  Unmatched vertices map to their own coarse vertex.  Each
    choice depends on every earlier one, so the walk is scalar; it runs
    over python lists, which index several times faster than arrays.
    A row's scan stops at the first free neighbor carrying the row's
    heaviest weight: a later one could only tie, and ties keep the
    first.  In a row whose weights all tie (every row of an unweighted
    level 0) that is the first free neighbor, found without reading
    the weights.
    """
    n = adj.shape[0]
    match = [-1] * n
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    filled = indptr[1:] > indptr[:-1]
    starts = indptr[:-1][filled]
    heaviest, even = np.zeros(n), np.ones(n, dtype=bool)
    heaviest[filled] = np.maximum.reduceat(data, starts)
    even[filled] = heaviest[filled] == np.minimum.reduceat(data, starts)
    heaviest, even, indptr = heaviest.tolist(), even.tolist(), indptr.tolist()
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        row = slice(indptr[v], indptr[v + 1])
        best, best_w, top = -1, 0.0, heaviest[v]
        if even[v]:
            best = next((u for u in indices[row].tolist()
                         if match[u] == -1 and u != v), -1)
        else:
            for u, w in zip(indices[row].tolist(), data[row].tolist()):
                if match[u] == -1 and u != v and w > best_w:
                    best, best_w = u, w
                    if w == top:
                        break
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v

    # Coarse ids follow each pair's lower end (a single is its own), in
    # ascending order.
    lower = np.minimum(np.array(match, dtype=np.int64), np.arange(n))
    lead = lower == np.arange(n)
    return np.cumsum(lead, dtype=np.int64)[lower] - 1, int(lead.sum())


def _group_sums(weights, groups, num_groups):
    """Rows of ``weights`` summed per group: the ``(k, c)`` constraint
    weight each part holds, or a coarse level's constraint matrix.
    ``bincount`` adds in index order, as ``np.add.at`` does, so the
    sums are the same floats."""
    return np.column_stack([
        np.bincount(groups, column, minlength=num_groups)
        for column in weights.T])


def _contract(adj, weights, cmap, num_coarse):
    """Contract matched pairs: sum adjacency weights and constraint rows.

    Fine edges map through ``cmap``; edges inside a pair drop out, and
    one sort of packed ``(row << shift) | col`` keys, each repeated by
    its weight, groups the rest into canonical coarse rows.  The weights
    are sums of unit edges, so a run's length is its exact weight sum.
    """
    shift = max(num_coarse - 1, 1).bit_length()
    key = np.repeat(cmap << shift, np.diff(adj.indptr))
    key |= cmap[adj.indices]
    cross = (key >> shift) != (key & ((1 << shift) - 1))
    # Each key repeated by its (integer) weight, so one in-place sort
    # groups the coarse pairs and each run's length is its summed
    # weight.
    key = np.repeat(key[cross], adj.data[cross].astype(np.int64))
    key.sort()
    key, data = _runs(key)
    indptr, indices = packed_csr(key, num_coarse, shift)
    return (_csr(data, indices, indptr, num_coarse),
            _group_sums(weights, cmap, num_coarse))


def _bfs_order(adj, rng):
    """Vertices in BFS order from a random start (covers all components)."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    order = []
    queue = deque()
    for start in rng.permutation(n):
        if seen[start]:
            continue
        queue.append(start)
        seen[start] = True
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in adj.indices[adj.indptr[v]:adj.indptr[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return np.array(order, dtype=np.int64)


def _capacities(weights, num_parts, imbalance):
    """Per-part capacity for each constraint column, with slack for the
    largest single vertex so assignment can never deadlock."""
    totals = weights.sum(axis=0)
    biggest = weights.max(axis=0) if len(weights) else totals
    return (1.0 + imbalance) * totals / num_parts + biggest


def _initial_partition(adj, weights, num_parts, caps, rng):
    """Greedy streaming assignment of the coarsest graph in BFS order."""
    n = adj.shape[0]
    assignment = np.full(n, -1, dtype=np.int64)
    loads = np.zeros((num_parts, weights.shape[1]))
    for v in _bfs_order(adj, rng):
        row = slice(adj.indptr[v], adj.indptr[v + 1])
        neighbors = adj.indices[row]
        edge_w = adj.data[row]
        conn = np.zeros(num_parts)
        assigned = assignment[neighbors] >= 0
        if assigned.any():
            np.add.at(conn, assignment[neighbors[assigned]],
                      edge_w[assigned])
        fits = np.all(loads + weights[v] <= caps, axis=1)
        # An all-zero constraint column has zero capacity and zero
        # load: its 0/0 is nan, which max() propagates on purpose.
        with np.errstate(invalid="ignore"):
            load_ratio = (loads / caps).max(axis=1)
        if not fits.any():
            # All parts nominally full: pick the least-loaded one.
            candidate = int(load_ratio.argmin())
        else:
            # LDG-style multiplicative penalty: connectivity matters, but
            # a nearly-full part is strongly discouraged.
            score = (conn + 1e-3) * (1.0 - load_ratio)
            score[~fits] = -np.inf
            candidate = int(score.argmax())
        assignment[v] = candidate
        loads[candidate] += weights[v]
    return assignment, loads


class _Level:
    """One uncoarsening level: an assignment and the two aggregates that
    every move keeps in step with it.

    ``conn[v, p]`` is the weight of ``v``'s edges into part ``p`` (one
    ``bincount`` of ``row * k + part[col]`` weighted by the edges) and
    ``loads[p, c]`` the weight of constraint ``c`` held by part ``p``.
    Edge weights are sums of unit edges, so ``conn`` is integer-valued:
    patching it along the moved vertex's row is exact and order-free,
    and the table always equals one rebuilt from scratch.
    """

    def __init__(self, adj, weights, assignment, num_parts):
        self.adj, self.weights, self.assignment = adj, weights, assignment
        n = adj.shape[0]
        key = np.repeat(np.arange(0, n * num_parts, num_parts),
                        np.diff(adj.indptr))
        key += assignment.take(adj.indices)
        self.conn = np.bincount(key, weights=adj.data,
                                minlength=n * num_parts).reshape(n, num_parts)
        self.loads = _group_sums(weights, assignment, num_parts)

    def pulled_away(self):
        """Which vertices are tied more heavily to some other part than
        to their own — the only vertices a positive-gain move exists
        for."""
        conn = self.conn
        return conn.max(axis=1) > conn[np.arange(len(conn)), self.assignment]

    def move(self, v, target):
        """Reassign ``v`` to ``target``; returns the neighbors whose
        ``conn`` rows changed."""
        adj = self.adj
        row = slice(adj.indptr[v], adj.indptr[v + 1])
        neighbors, edge_w = adj.indices[row], adj.data[row]
        cur = self.assignment[v]
        # ufunc.at, not ``conn[neighbors, cur] -= edge_w``: a symmetric
        # multigraph reaches level 0 with repeated column indices in a
        # row, and a fancy-indexed update keeps only one of each.
        np.subtract.at(self.conn, (neighbors, cur), edge_w)
        np.add.at(self.conn, (neighbors, target), edge_w)
        self.assignment[v] = target
        self.loads[cur] -= self.weights[v]
        self.loads[target] += self.weights[v]
        return neighbors


def _refine(level, caps, rng, passes):
    """Boundary FM refinement: greedy positive-gain moves under all
    capacity constraints, then the balance pass.

    A visit reads ``v``'s table row as python floats.  Its candidates
    are the parts ``v`` is tied to more heavily than to its own, best
    gain first and the lower part id on a tie (``argmax``'s order:
    float subtraction is sign-symmetric), and ``v`` moves to the first
    whose capacities all hold.  ``maybe`` flags a superset of the
    pulled vertices (:meth:`_Level.pulled_away`): it is exact at the
    start, a move flags every neighbor outside the target part (one
    inside it only gained on its own part), and a visit clears the flag
    once no part beats its own.  Visiting a vertex that is not pulled
    moves nothing, so the moves are the exact set's, in the same order.
    """
    conn, loads, weights = level.conn, level.loads, level.weights
    n, part, cap = len(conn), level.assignment.tolist(), caps.tolist()
    maybe = level.pulled_away().tolist()
    for _pass in range(passes):
        moved = 0
        for v in rng.permutation(n).tolist():
            if not maybe[v]:
                continue  # interior, or no part beats its own
            row = conn[v].tolist()
            own = row[part[v]]
            if max(row) <= own:
                maybe[v] = False
                continue
            w = weights[v].tolist()
            for _loss, target in sorted(
                    (own - g, p) for p, g in enumerate(row) if g > own):
                if all(held + x <= c for held, x, c
                       in zip(loads[target].tolist(), w, cap)):
                    break
            else:
                continue  # no better part has room
            for u in level.move(v, target).tolist():
                if part[u] != target:
                    maybe[u] = True
            part[v] = target
            moved += 1
        if FLAGS.sanitize and (level.pulled_away() > maybe).any():
            raise SanitizerError("FM's flags lost a vertex that another "
                                 "part pulls away")
        if moved == 0:
            break
    _balance_pass(level, rng)


def _balance_pass(level, rng, floor_ratio=0.85, max_moves_factor=0.25):
    """Pull vertices into under-loaded parts, one constraint at a time.

    FM refinement only makes cut-improving moves, so a part left starved
    by the initial assignment stays starved.  For every constraint column
    this pass moves vertices carrying that constraint's weight from
    over-loaded parts into any part below ``floor_ratio`` of the average,
    choosing, among sampled candidates, the vertex with the smallest cut
    damage.  Enforcing *every* column is what makes Metis-VE/VET pay for
    their extra constraints with a higher edge cut, as the paper observes
    (§5.3.2).
    """
    conn, assignment, weights = level.conn, level.assignment, level.weights
    num_parts = conn.shape[1]
    # A fresh sum, not FM's running one: with fractional constraint
    # weights the running loads carry rounding the thresholds would see.
    loads = level.loads = _group_sums(weights, assignment, num_parts)
    avg = weights.sum(axis=0) / num_parts
    max_moves = int(max_moves_factor * len(assignment)) + 1
    for column in range(weights.shape[1]):
        if avg[column] <= 0:
            continue
        carries = weights[:, column] > 0
        for _move in range(max_moves):
            col_load = loads[:, column]
            needy = int(col_load.argmin())
            if col_load[needy] >= floor_ratio * avg[column]:
                break
            donors = col_load > avg[column]
            candidates = np.flatnonzero(donors[assignment] & carries)
            if len(candidates) == 0:
                break
            sample = candidates if len(candidates) <= 256 else rng.choice(
                candidates, size=256, replace=False)
            # Cut damage per unit of constraint weight moved.
            score = (conn[sample, assignment[sample]]
                     - conn[sample, needy]) / weights[sample, column]
            level.move(int(sample[score.argmin()]), needy)


def _check_knobs(imbalance, refine_passes, coarsen_to=None, num_parts=1):
    """Raise :class:`PartitionError` naming the first METIS knob out of
    range.  Unchecked, a ``nan`` imbalance skews the part sizes, a
    negative pass count skips FM and a ``nan`` ``coarsen_to`` never
    coarsens, all silently.  ``coarsen_to=None`` means the default."""
    whole = numbers.Integral
    for name, value, kind, least in (
            ("num_parts", num_parts, whole, 1),
            ("imbalance", imbalance, numbers.Real, 0),
            ("refine_passes", refine_passes, whole, 0),
            ("coarsen_to", 1 if coarsen_to is None else coarsen_to, whole, 1)):
        if isinstance(value, bool) or not isinstance(value, kind) \
                or not least <= value < np.inf:
            rule = "an integer" if kind is whole else "a finite number"
            raise PartitionError(
                f"{name} must be {rule} >= {least}, got {value!r}")


def metis_partition(graph, num_parts, constraints=None, rng=None,
                    imbalance=0.1, coarsen_to=None, refine_passes=3):
    """Multilevel multi-constraint partitioning.

    Parameters
    ----------
    graph:
        :class:`~repro.graph.csr.CSRGraph`.
    num_parts:
        Number of parts ``k`` (an integer >= 1).
    constraints:
        ``(n, c)`` finite non-negative weight matrix to balance.  A unit
        vertex-count column is always prepended, so ``None`` balances
        vertex counts only.
    rng:
        :class:`numpy.random.Generator` (default: seeded fresh).
    imbalance:
        Allowed relative imbalance ``epsilon`` per constraint (a finite
        number >= 0).
    coarsen_to:
        Stop coarsening below this many vertices (an integer >= 1;
        default ``max(128, 16 * num_parts)``).
    refine_passes:
        FM passes per uncoarsening level (an integer >= 0).

    Returns
    -------
    ``int64 (n,)`` assignment array.

    Raises
    ------
    PartitionError
        A knob out of range (named in the message) or a malformed
        constraint matrix.
    """
    _check_knobs(imbalance, refine_passes, coarsen_to, num_parts)
    n = graph.num_vertices
    if rng is None:
        rng = np.random.default_rng(0)
    unit = np.ones((n, 1))
    if constraints is None:
        weights = unit
    else:
        constraints = np.asarray(constraints, dtype=np.float64)
        if constraints.ndim == 1:
            constraints = constraints[:, None]
        if (constraints.shape[0] != n or np.any(constraints < 0)
                or not np.isfinite(constraints).all()):
            raise PartitionError(
                "constraints must be a finite non-negative (n, c) matrix")
        weights = np.hstack([unit, constraints])
    if coarsen_to is None:
        coarsen_to = max(128, 16 * num_parts)

    # Phase 1: coarsen.
    adj = _weighted_adjacency(graph)
    levels = []  # (adjacency, constraint matrix, cmap), finest first
    cur_adj, cur_weights = adj, weights
    while cur_adj.shape[0] > coarsen_to:
        cmap, num_coarse = _heavy_edge_matching(cur_adj, rng)
        if num_coarse >= cur_adj.shape[0] * 0.95:
            break  # matching stalled (e.g. near-empty graph)
        levels.append((cur_adj, cur_weights, cmap))
        cur_adj, cur_weights = _contract(cur_adj, cur_weights, cmap,
                                         num_coarse)

    # Phase 2: initial partition of the coarsest graph.
    caps = _capacities(cur_weights, num_parts, imbalance)
    assignment, _ = _initial_partition(cur_adj, cur_weights, num_parts,
                                       caps, rng)
    _refine(_Level(cur_adj, cur_weights, assignment, num_parts), caps, rng,
            refine_passes)

    # Phase 3: uncoarsen + refine, finest last.
    for fine_adj, fine_w, cmap in reversed(levels):
        assignment = assignment[cmap]
        caps = _capacities(fine_w, num_parts, imbalance)
        _refine(_Level(fine_adj, fine_w, assignment, num_parts), caps, rng,
                refine_passes)
    return assignment


def metis_clusters(graph, num_clusters, rng=None):
    """Cluster the graph into ``num_clusters`` dense pieces (used by
    cluster-based batch selection, §6.3.2).  Pure min-cut clustering, no
    extra constraints."""
    return metis_partition(graph, num_clusters, rng=rng, imbalance=0.3)


class MetisPartitioner(Partitioner):
    """Metis-extend partitioning with the paper's constraint presets.

    Parameters
    ----------
    variant:
        ``"v"`` (balance train vertices), ``"ve"`` (train vertices +
        degrees), or ``"vet"`` (train/val/test vertices + degrees).
    imbalance:
        Allowed relative imbalance per constraint (a finite number
        >= 0).
    refine_passes:
        FM passes per uncoarsening level (an integer >= 0).

    Knobs out of range raise :class:`PartitionError` here, not at the
    first partition.
    """

    VARIANTS = ("v", "ve", "vet")

    def __init__(self, variant="ve", imbalance=0.1, refine_passes=3):
        if variant not in self.VARIANTS:
            raise PartitionError(
                f"variant must be one of {self.VARIANTS}, got {variant!r}")
        _check_knobs(imbalance, refine_passes)
        self.variant = variant
        self.imbalance = imbalance
        self.refine_passes = refine_passes
        self.name = f"metis-{variant}"

    def _constraints(self, graph, split):
        if split is None:
            raise PartitionError(
                f"{self.name} needs a train/val/test split to balance")
        columns = [split.train_mask.astype(np.float64)]
        if self.variant in ("ve", "vet"):
            columns.append(graph.out_degrees.astype(np.float64))
        if self.variant == "vet":
            columns.append(split.val_mask.astype(np.float64))
            columns.append(split.test_mask.astype(np.float64))
        return np.column_stack(columns)

    def _partition(self, graph, num_parts, split, rng):
        constraints = self._constraints(graph, split)
        assignment = metis_partition(
            graph, num_parts, constraints=constraints, rng=rng,
            imbalance=self.imbalance, refine_passes=self.refine_passes)
        return PartitionResult(assignment, num_parts, self.name)
