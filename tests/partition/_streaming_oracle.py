"""The per-vertex streaming loops, kept verbatim as the oracle.

``l_hop_neighborhood`` is the body ``repro.partition.streaming``
shipped before a hop became one ragged gather of the frontier's CSR
rows: it walks the frontier one vertex at a time, draws a capped
vertex's neighbors with its own ``rng.choice(neighbors, hop_cap,
replace=False)`` and de-duplicates a hop with ``np.unique``.
``stream_b_assignment`` is Stream-B's block stream as it shipped
before a block's connectivity became one gather and one ``bincount``:
one ``np.add.at`` per vertex of the block.  They define the outputs
(and the order of every ``rng`` draw) the shipped code must reproduce
byte for byte; ``test_streaming_oracle.py`` runs both on generated
graphs.  Do not "fix" or speed up anything here.
"""

import numpy as np

from repro.partition import build_bfs_blocks


def l_hop_neighborhood(graph, vertex, hops, hop_cap=None, rng=None):
    """Vertices within ``hops`` steps of ``vertex`` (excluding it)."""
    frontier = np.array([vertex], dtype=np.int64)
    seen = np.zeros(graph.num_vertices, dtype=bool)
    seen[vertex] = True
    result = []
    for _hop in range(hops):
        if len(frontier) == 0:
            break
        chunks = []
        for v in frontier:
            neighbors = graph.out_neighbors(v)
            if hop_cap is not None and len(neighbors) > hop_cap:
                if rng is None:
                    neighbors = neighbors[:hop_cap]
                else:
                    neighbors = rng.choice(neighbors, size=hop_cap,
                                           replace=False)
            chunks.append(neighbors)
        candidates = np.unique(np.concatenate(chunks))
        fresh = candidates[~seen[candidates]]
        seen[fresh] = True
        result.append(fresh)
        frontier = fresh
    if not result:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(result)


def stream_b_assignment(graph, num_parts, split, rng, block_size=32,
                        balance_types=True):
    """``StreamBPartitioner(block_size, balance_types)._partition``'s
    assignment."""
    n = graph.num_vertices
    blocks = build_bfs_blocks(graph, split.train_ids, rng, block_size)
    type_masks = [split.train_mask]
    if balance_types:
        type_masks += [split.val_mask, split.test_mask]
    type_weights = np.stack(
        [m.astype(np.float64) for m in type_masks], axis=1)
    capacity = type_weights.sum(axis=0) / num_parts + 1.0

    assignment = np.full(n, -1, dtype=np.int64)
    loads = np.zeros((num_parts, type_weights.shape[1]))
    order = rng.permutation(len(blocks))
    for bi in order:
        block = blocks[bi]
        # Edges from the block into each partition's current holdings.
        conn = np.zeros(num_parts)
        for v in block:
            parts = assignment[graph.out_neighbors(v)]
            held = parts >= 0
            if held.any():
                np.add.at(conn, parts[held], 1.0)
        block_w = type_weights[block].sum(axis=0)
        load_ratio = (loads / capacity).max(axis=1)
        # Hard capacity: a partition at its per-type quota scores 0,
        # so the connectivity term cannot starve the others.
        score = (conn + 1.0) * np.maximum(1.0 - load_ratio, 0.0)
        if score.max() <= 0:
            part = int(load_ratio.argmin())
        else:
            part = int(score.argmax())
        assignment[block] = part
        loads[part] += block_w
    return assignment
