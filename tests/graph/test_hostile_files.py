"""A damaged saved graph or dataset is a typed error, never a stray one.

``save_graph`` / ``save_dataset`` write compressed ``.npz`` archives.
Reading back a truncated one, or one with a few bits flipped, used to
let whatever the zip, deflate or ``.npy`` reader raised escape
(``BadZipFile``, ``zlib.error``, ``OSError``, ``ValueError``,
``NotImplementedError``): 118 of 120 such files at seed 0.  Each case
below must either raise the loader's typed error, naming the file, or
load a result equal to the original (a flip the archive never reads,
such as one in a modification time).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError, GraphError
from repro.graph import (load_dataset, load_dataset_file, load_graph,
                         power_law_graph, save_dataset, save_graph)


#: ``("truncate", offset)`` or ``("flip", [bit, ...])``: 1 to 8 bits.
#: Offsets and bits are taken modulo the file's size.
DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("flip"), st.lists(st.integers(0, 1 << 23),
                                        min_size=1, max_size=8)))


def damaged(raw, how):
    kind, where = how
    if kind == "truncate":
        return raw[:where % len(raw)]
    out = bytearray(raw)
    for bit in where:
        bit %= 8 * len(raw)
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The original graph and dataset, their saved bytes, and a path
    each case overwrites."""
    root = tmp_path_factory.mktemp("hostile")
    graph, _ = power_law_graph(200, 8, np.random.default_rng(0))
    dataset = load_dataset("ogb-arxiv", scale=0.1)
    save_graph(graph, root / "graph.npz")
    save_dataset(dataset, root / "dataset.npz")
    return {"graph": (graph, (root / "graph.npz").read_bytes()),
            "dataset": (dataset, (root / "dataset.npz").read_bytes()),
            "path": root / "damaged.npz"}


@settings(max_examples=150, deadline=None)
@example(how=("truncate", 0))
@example(how=("flip", [0]))
@given(how=DAMAGE)
def test_damaged_graph_is_a_graph_error(saved, how):
    graph, raw = saved["graph"]
    path = saved["path"]
    path.write_bytes(damaged(raw, how))
    try:
        loaded = load_graph(path)
    except GraphError as exc:
        assert str(path) in str(exc)
        return
    assert loaded == graph
    assert loaded.is_symmetric == graph.is_symmetric


@settings(max_examples=150, deadline=None)
@example(how=("truncate", 0))
@example(how=("flip", [0]))
@given(how=DAMAGE)
def test_damaged_dataset_is_a_dataset_error(saved, how):
    dataset, raw = saved["dataset"]
    path = saved["path"]
    path.write_bytes(damaged(raw, how))
    try:
        loaded = load_dataset_file(path)
    except (DatasetError, GraphError) as exc:
        # GraphError: the archive reads back but lacks an array (a
        # flipped member name), the contract pinned in
        # tests/graph/test_metrics_io_splits.py.
        assert str(path) in str(exc)
        return
    assert loaded.spec == dataset.spec
    assert loaded.graph == dataset.graph
    for name in ("features", "labels"):
        assert getattr(loaded, name).tobytes() \
            == getattr(dataset, name).tobytes()
    for mask in ("train_mask", "val_mask", "test_mask"):
        assert np.array_equal(getattr(loaded.split, mask),
                              getattr(dataset.split, mask))


def test_damage_names_the_member(saved):
    """A flip inside a member's compressed bytes names that member."""
    _, raw = saved["graph"]
    path = saved["path"]
    # The first member's data starts after its 30-byte local header and
    # its name; flip a byte well inside its deflate stream.
    name_length = int.from_bytes(raw[26:28], "little")
    start = 30 + name_length + int.from_bytes(raw[28:30], "little")
    member = raw[30:30 + name_length].decode().removesuffix(".npy")
    path.write_bytes(damaged(raw, ("flip", [8 * (start + 20)])))
    with pytest.raises(GraphError, match=f"member '{member}'"):
        load_graph(path)


@pytest.mark.parametrize("loader, error", [(load_graph, GraphError),
                                           (load_dataset_file,
                                            DatasetError)])
def test_a_lone_array_is_not_an_archive(tmp_path, loader, error):
    """``np.load`` reads a ``.npy`` file as one array, not an archive."""
    path = tmp_path / "array.npz"
    with open(path, "wb") as handle:
        np.save(handle, np.arange(4))
    with pytest.raises(error, match="is not a .* archive"):
        loader(path)


def test_a_missing_file_is_the_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_graph(tmp_path / "absent.npz")
