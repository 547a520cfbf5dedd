"""``repro.perf.summarize`` sorts a float64 copy with numpy; the digest
must be the bytes the ``sorted()`` version gives
(``tests/perf/_summarize_oracle.py``) on every column a report can see:
floats, ints, a mix, ties (``0.0`` / ``-0.0`` included), negatives, one
to a few hundred entries — and python types out, so the JSON of every
tracked report is unchanged."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.perf import percentile, summarize

from . import _summarize_oracle as oracle


def as_bytes(digest):
    """Keys, python types and IEEE bytes of a digest."""
    if digest is None:
        return None
    return [(key, type(value).__name__,
             struct.pack("<d", value) if isinstance(value, float)
             else value)
            for key, value in digest.items()]


def column(kind, length, rng):
    """A generated observation column of one of the shapes the serving
    reports digest, plus the hostile ones."""
    if kind == "latency":
        return (rng.exponential(1e-3, length) + 1e-4).tolist()
    if kind == "depth":
        return rng.integers(0, 64, length).tolist()
    if kind == "ties":
        return rng.choice([0.0, -0.0, 1.5, 2.0, -3.25], length).tolist()
    if kind == "negative":
        return rng.normal(0.0, 1e6, length).tolist()
    if kind == "mixed":
        return [int(v) if v % 2 else float(v) / 3.0
                for v in rng.integers(-50, 50, length)]
    # "wide": magnitudes across the float range.
    return (rng.standard_normal(length)
            * 10.0 ** rng.integers(-300, 300, length)).tolist()


KINDS = ("latency", "depth", "ties", "negative", "mixed", "wide")


@pytest.mark.parametrize("kind", KINDS)
def test_generated_columns_give_the_oracle_bytes(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(500):
        values = column(kind, int(rng.integers(1, 301)), rng)
        assert as_bytes(summarize(values)) \
            == as_bytes(oracle.summarize(values)), values


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-2**40, 2**40)), min_size=1, max_size=300))
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0])
@example([3, 3.0, 1, 1.0])
def test_any_finite_column_gives_the_oracle_bytes(values):
    assert as_bytes(summarize(values)) \
        == as_bytes(oracle.summarize(values))


def test_empty_column_is_none():
    assert summarize([]) is None is oracle.summarize([])
    assert summarize(np.empty(0)) is None


@pytest.mark.parametrize("q", [0.0, 12.5, 50.0, 95.0, 99.0, 100.0])
def test_percentile_reads_arrays_as_lists(q):
    rng = np.random.default_rng(int(q))
    values = rng.exponential(1.0, 137)
    ordered = np.sort(values)
    expected = oracle.percentile(values.tolist(), q)
    for got in (percentile(values, q),
                percentile(ordered, q, presorted=True),
                percentile(values.tolist(), q)):
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", expected)
    assert percentile(np.empty(0), q, default=None) is None
    with pytest.raises(ValueError, match="empty"):
        percentile(np.empty(0), q)
