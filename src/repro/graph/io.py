"""Saving/loading graphs and datasets, and bring-your-own-data
ingestion.

Besides the ``.npz`` round trip of graphs and datasets (built-in or
user-provided), this module is the door for real data:
:func:`load_edge_list` parses the ubiquitous whitespace-separated
edge-list text format (SNAP/KONECT downloads), and
:func:`dataset_from_arrays` wraps any graph + feature/label arrays as a
:class:`Dataset`, so every experiment in the library runs unchanged on
user-supplied graphs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatasetError, GraphError
from .build import from_edges
from .csr import CSRGraph
from .datasets import DATASET_SPECS, Dataset, DatasetSpec
from .splits import Split, split_vertices

__all__ = ["save_graph", "load_graph", "save_dataset",
           "load_dataset_file", "load_edge_list", "dataset_from_arrays"]

#: ``DatasetSpec.kind`` of a dataset built from the caller's arrays.
USER_PROVIDED = "user-provided"
#: The arrays every file of :func:`save_graph` / :func:`save_dataset`
#: holds (a user-provided dataset also holds ``kind`` and
#: ``num_classes``).
_GRAPH_ARRAYS = ("indptr", "indices", "num_vertices", "is_symmetric")
_DATASET_ARRAYS = ("name", *_GRAPH_ARRAYS, "features", "labels",
                   "train_mask", "val_mask", "test_mask", "communities")


def load_edge_list(path, symmetrize_edges=True, comment_chars="#%"):
    """Parse a whitespace-separated edge-list text file into a graph.

    The format SNAP and KONECT dumps use: one ``src dst`` pair per
    line, ``#``/``%`` comment lines ignored, vertex ids arbitrary
    non-negative integers (compacted to ``0..n-1``).

    Returns ``(graph, original_ids)`` where ``original_ids[i]`` is the
    file's id of compacted vertex ``i``.  A line without two integer ids
    raises :class:`GraphError` naming the file and the line number.
    """
    sources, destinations = [], []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            stripped = line.strip()
            if not stripped or stripped[0] in comment_chars:
                continue
            try:   # fewer than two ids fails the unpacking
                source, destination = map(int, stripped.split()[:2])
            except ValueError:
                raise GraphError(f"{path}:{number}: malformed edge line "
                                 f"{stripped!r}") from None
            sources.append(source)
            destinations.append(destination)
    if not sources:
        raise GraphError(f"{path} contains no edges")
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(destinations, dtype=np.int64)
    original_ids = np.unique(np.concatenate([src, dst]))
    lookup = {int(v): i for i, v in enumerate(original_ids)}
    src = np.fromiter((lookup[int(v)] for v in src), dtype=np.int64,
                      count=len(src))
    dst = np.fromiter((lookup[int(v)] for v in dst), dtype=np.int64,
                      count=len(dst))
    graph = from_edges(src, dst, len(original_ids),
                       symmetrize_edges=symmetrize_edges)
    return graph, original_ids


def dataset_from_arrays(graph, features, labels, num_classes=None,
                        name="custom", split=None, rng=None,
                        communities=None):
    """Wrap a graph plus feature/label arrays as a full
    :class:`Dataset`, ready for every experiment in the library.

    Parameters
    ----------
    graph:
        :class:`CSRGraph` (e.g. from :func:`load_edge_list`).
    features:
        ``(n, F)`` float array.
    labels:
        ``(n,)`` integer class labels.
    num_classes:
        Defaults to ``labels.max() + 1``.
    split:
        Optional :class:`~repro.graph.splits.Split`; defaults to the
        paper's 65:10:25 random split.
    """
    features = np.ascontiguousarray(features, dtype=np.float32)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    n = graph.num_vertices
    if features.ndim != 2 or len(features) != n:
        raise DatasetError(
            f"features must be (n, F) with n={n}, got {features.shape}")
    if labels.shape != (n,):
        raise DatasetError(
            f"labels must be (n,) with n={n}, got {labels.shape}")
    if labels.min(initial=0) < 0:
        raise DatasetError("labels must be non-negative class ids")
    num_classes = int(num_classes if num_classes is not None
                      else labels.max(initial=0) + 1)
    if split is None:
        split = split_vertices(
            n, rng if rng is not None else np.random.default_rng(0))
    split.validate()
    return Dataset(spec=_user_spec(name, graph, features.shape[1],
                                   num_classes),
                   graph=graph, features=features, labels=labels,
                   split=split, communities=communities)


def _user_spec(name, graph, feature_dim, num_classes):
    """The :class:`DatasetSpec` of a dataset built from the caller's
    arrays: everything follows from the graph and the two widths."""
    n = graph.num_vertices
    return DatasetSpec(
        name=name, kind=USER_PROVIDED, paper_vertices=str(n),
        paper_edges=str(graph.num_edges), feature_dim=int(feature_dim),
        num_classes=int(num_classes), num_vertices=n,
        avg_degree=graph.num_edges / max(n, 1), power_law=False,
        labeled=True)


def save_graph(graph, path):
    """Write a :class:`CSRGraph` to ``path`` as a compressed npz archive."""
    np.savez_compressed(
        path, indptr=graph.indptr, indices=graph.indices,
        num_vertices=np.int64(graph.num_vertices),
        is_symmetric=np.bool_(graph.is_symmetric))


def _check_arrays(data, path, names, what):
    """Raise :class:`GraphError` naming ``path`` and every array of
    ``names`` the archive ``data`` lacks."""
    missing = [name for name in names if name not in data]
    if missing:
        raise GraphError(f"{path} is not a saved {what}: missing "
                         f"{', '.join(map(repr, missing))}")


def _read_archive(path, names, what, error):
    """Every array of the ``.npz`` archive at ``path``, read in full,
    by name.

    A file that opens but does not read back as an archive — a lone
    ``.npy`` array, truncated, or a bit flipped that the zip directory,
    a member's CRC-32 or its deflate stream catches — raises ``error``
    naming the file and the member that failed, with what the reader
    raised as its cause; a readable
    archive lacking an array of ``names`` is a :class:`GraphError`
    (:func:`_check_arrays`).  A file that cannot be opened raises the
    operating system's error.  The readers share no exception base:
    fuzzed files raised ``BadZipFile``, ``zlib.error``, ``EOFError``,
    ``OSError``, ``ValueError``, ``NotImplementedError`` (a flipped
    compression method), ``RuntimeError`` (a flipped encryption flag)
    and ``tokenize.TokenError`` (a garbled ``.npy`` header), hence the
    ``except Exception`` around the reads alone."""
    with open(path, "rb") as handle:
        try:
            data = np.load(handle)
        except Exception as exc:
            raise error(f"{path} is not a readable {what} archive: "
                        f"{exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise error(f"{path} is not a {what} archive: it holds one "
                        f"array")
        with data:
            _check_arrays(data, path, names, what)
            arrays = {}
            for name in data.files:
                try:
                    arrays[name] = data[name]
                except Exception as exc:
                    raise error(f"{path}: member {name!r} of the {what} "
                                f"archive does not read back: {exc}") \
                        from exc
    return arrays


def load_graph(path):
    """Read a :class:`CSRGraph` previously written by :func:`save_graph`;
    a damaged file is a :class:`GraphError` (:func:`_read_archive`)."""
    data = _read_archive(path, _GRAPH_ARRAYS, "graph", GraphError)
    return CSRGraph(data["indptr"], data["indices"],
                    num_vertices=int(data["num_vertices"]),
                    is_symmetric=bool(data["is_symmetric"]))


def save_dataset(dataset, path):
    """Write a full :class:`Dataset` (graph + features + labels + split)."""
    np.savez_compressed(
        path,
        name=np.str_(dataset.spec.name), kind=np.str_(dataset.spec.kind),
        num_classes=np.int64(dataset.spec.num_classes),
        indptr=dataset.graph.indptr, indices=dataset.graph.indices,
        num_vertices=np.int64(dataset.graph.num_vertices),
        is_symmetric=np.bool_(dataset.graph.is_symmetric),
        features=dataset.features, labels=dataset.labels,
        train_mask=dataset.split.train_mask,
        val_mask=dataset.split.val_mask,
        test_mask=dataset.split.test_mask,
        communities=(dataset.communities if dataset.communities is not None
                     else np.zeros(0, dtype=np.int64)))


def load_dataset_file(path):
    """Read a :class:`Dataset` previously written by :func:`save_dataset`.

    A built-in dataset gets its registered spec back, one built by
    :func:`dataset_from_arrays` the spec that function gave it.  A
    damaged file is a :class:`DatasetError` (:func:`_read_archive`)."""
    data = _read_archive(path, _DATASET_ARRAYS, "dataset", DatasetError)
    name = str(data["name"])
    graph = CSRGraph(data["indptr"], data["indices"],
                     num_vertices=int(data["num_vertices"]),
                     is_symmetric=bool(data["is_symmetric"]))
    features = data["features"]
    if "kind" in data and str(data["kind"]) == USER_PROVIDED:
        spec = _user_spec(name, graph, features.shape[1],
                          data["num_classes"])
    elif name in DATASET_SPECS:
        spec = DATASET_SPECS[name]
    else:
        raise GraphError(f"{path} references unknown dataset {name!r}")
    split = Split(data["train_mask"], data["val_mask"], data["test_mask"])
    communities = data["communities"]
    return Dataset(
        spec=spec, graph=graph, features=features, labels=data["labels"],
        split=split, communities=communities if len(communities) else None)
