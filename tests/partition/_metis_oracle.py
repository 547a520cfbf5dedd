"""The pre-connectivity-table METIS loops, kept verbatim as the oracle.

``_heavy_edge_matching``, ``_refine`` and ``_balance_pass`` below are
the bodies ``repro.partition.metis`` shipped before its uncoarsening
hot path moved onto the incrementally maintained connectivity table:
every boundary vertex re-scatters its row, every balance candidate pays
two masked row sums, and matching walks numpy scalars.  They define the
assignments (and the order of every ``rng`` draw) the fast path must
reproduce byte for byte; ``test_metis_oracle.py`` runs both on
generated graphs.  Do not "fix" or speed up anything here.

``_contract`` is the scipy round trip coarsening shipped before the
coarse level was built from one sort of packed ``(row << shift) | col``
keys: ``tocoo`` → ``csr_matrix((data, (row, col)))`` (which sums
duplicates) → ``setdiag(0)`` → ``eliminate_zeros``.  It defines the
coarse ``indptr`` / ``indices`` / ``data`` the shipped one must return.

``_weighted_adjacency`` is the level-0 adjacency shipped before the
diagonal was dropped with a mask: ``setdiag(0)`` (scipy's insert or
COO round-trip path on a graph without self-loops, and a
``sum_duplicates`` first when a row holds its self-loop twice) then
``eliminate_zeros``.  It defines the ``indptr`` / ``indices`` / ``data``
the shipped one must return.
"""

import numpy as np

from repro.errors import PartitionError

try:
    import scipy.sparse as sp
except ImportError:  # pragma: no cover - the scipy cases skip themselves
    sp = None


def _weighted_adjacency(graph):
    """The graph as a symmetric weighted scipy CSR matrix (weight 1 per
    edge, symmetrized so matching sees every neighbor)."""
    if sp is None:
        raise PartitionError(
            "metis-style partitioning requires scipy; use the hash or "
            "range partitioner instead")
    n = graph.num_vertices
    data = np.ones(graph.num_edges, dtype=np.float64)
    adj = sp.csr_matrix((data, graph.indices.astype(np.int32),
                         graph.indptr.astype(np.int64)), shape=(n, n))
    if not graph.is_symmetric:
        adj = adj.maximum(adj.T)
    adj.setdiag(0)
    adj.eliminate_zeros()
    return adj


def _contract(adj, weights, cmap, num_coarse):
    """Contract matched pairs: sum adjacency weights and constraint rows.

    ``adj`` may be any four-field CSR level (the shipped one is not a
    scipy matrix); it is read into one before the round trip."""
    coo = sp.csr_matrix((adj.data, adj.indices, adj.indptr),
                        shape=adj.shape).tocoo()
    coarse = sp.csr_matrix(
        (coo.data, (cmap[coo.row], cmap[coo.col])),
        shape=(num_coarse, num_coarse))
    coarse.setdiag(0)
    coarse.eliminate_zeros()
    return coarse, _group_sums(weights, cmap, num_coarse)


def _group_sums(weights, groups, num_groups):
    """Rows of ``weights`` summed per group."""
    sums = np.zeros((num_groups, weights.shape[1]))
    np.add.at(sums, groups, weights)
    return sums


def _heavy_edge_matching(adj, rng):
    """Greedy heavy-edge matching.

    Returns ``cmap`` (coarse id per fine vertex) and the coarse vertex
    count.  Unmatched vertices map to their own coarse vertex.
    """
    n = adj.shape[0]
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    for v in order:
        if match[v] != -1:
            continue
        best, best_w = -1, 0.0
        for idx in range(indptr[v], indptr[v + 1]):
            u = indices[idx]
            if match[u] == -1 and u != v and data[idx] > best_w:
                best, best_w = u, data[idx]
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v

    cmap = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if cmap[v] != -1:
            continue
        cmap[v] = next_id
        partner = match[v]
        if partner != v and cmap[partner] == -1:
            cmap[partner] = next_id
        next_id += 1
    return cmap, next_id


def _refine(adj, weights, assignment, num_parts, caps, rng, passes):
    """Boundary FM refinement: greedy positive-gain moves under all
    capacity constraints."""
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    loads = np.zeros((num_parts, weights.shape[1]))
    np.add.at(loads, assignment, weights)
    for _pass in range(passes):
        moved = 0
        for v in rng.permutation(adj.shape[0]):
            row = slice(indptr[v], indptr[v + 1])
            neighbors = indices[row]
            if len(neighbors) == 0:
                continue
            cur = assignment[v]
            parts = assignment[neighbors]
            if np.all(parts == cur):
                continue  # interior vertex
            conn = np.zeros(num_parts)
            np.add.at(conn, parts, data[row])
            gain = conn - conn[cur]
            gain[cur] = -np.inf
            # Capacity check for every candidate part.
            fits = np.all(loads + weights[v] <= caps, axis=1)
            gain[~fits] = -np.inf
            target = int(gain.argmax())
            if gain[target] > 0:
                assignment[v] = target
                loads[cur] -= weights[v]
                loads[target] += weights[v]
                moved += 1
        if moved == 0:
            break
    _balance_pass(adj, weights, assignment, num_parts, caps, rng)
    return assignment


def _balance_pass(adj, weights, assignment, num_parts, caps, rng,
                  floor_ratio=0.85, max_moves_factor=0.25):
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
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    loads = np.zeros((num_parts, weights.shape[1]))
    np.add.at(loads, assignment, weights)
    avg = weights.sum(axis=0) / num_parts
    max_moves = int(max_moves_factor * adj.shape[0]) + 1
    for column in range(weights.shape[1]):
        if avg[column] <= 0:
            continue
        for _move in range(max_moves):
            col_load = loads[:, column]
            needy = int(col_load.argmin())
            if col_load[needy] >= floor_ratio * avg[column]:
                break
            donors = np.flatnonzero(col_load > avg[column])
            if len(donors) == 0:
                break
            carries = weights[:, column] > 0
            candidates = np.flatnonzero(
                np.isin(assignment, donors) & carries)
            if len(candidates) == 0:
                break
            sample = candidates if len(candidates) <= 256 else rng.choice(
                candidates, size=256, replace=False)
            best_v, best_score = -1, np.inf
            for v in sample:
                row = slice(indptr[v], indptr[v + 1])
                parts = assignment[indices[row]]
                conn_needy = data[row][parts == needy].sum()
                conn_cur = data[row][parts == assignment[v]].sum()
                # Cut damage per unit of constraint weight moved.
                score = (conn_cur - conn_needy) / weights[v, column]
                if score < best_score:
                    best_v, best_score = int(v), score
            if best_v == -1:
                break
            loads[assignment[best_v]] -= weights[best_v]
            loads[needy] += weights[best_v]
            assignment[best_v] = needy
