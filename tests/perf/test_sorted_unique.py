"""``repro.perf.sorted_unique`` is ``np.unique`` for the per-batch
de-duplications on the timed paths — same values, same ascending
order — so billing and cache admission are bit-identical to the
``np.unique`` calls it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.perf import sorted_unique

INT64 = np.iinfo(np.int64)


@settings(max_examples=60, deadline=None)
@given(values=st.one_of(
    hnp.arrays(np.int64, st.integers(0, 200),
               elements=st.integers(-5, 40)),          # many duplicates
    hnp.arrays(np.int64, st.integers(0, 50),
               elements=st.integers(INT64.min, INT64.max))))
def test_equals_np_unique(values):
    original = values.copy()
    result = sorted_unique(values.copy())
    expected = np.unique(original)
    assert result.dtype == expected.dtype == np.int64
    assert np.array_equal(result, expected)
    # Handed a copy, the caller's array is untouched.
    assert np.array_equal(values, original)


@pytest.mark.parametrize("values", [
    [], [7], [3, 3, 3, 3], [1, 2, 3, 9], [9, 3, 2, 1], [-1, -1, 0, -1],
], ids=["empty", "singleton", "all-equal", "sorted", "reversed",
        "negative"])
def test_corner_cases(values):
    array = np.array(values, dtype=np.int64)
    result = sorted_unique(array.copy())
    assert result.dtype == np.int64
    assert np.array_equal(result, np.unique(array))


def test_sorts_its_argument_in_place():
    # The contract callers rely on to skip a copy — and the reason a
    # caller's own array must be copied first.
    array = np.array([5, 1, 5, 2], dtype=np.int64)
    sorted_unique(array)
    assert array.tolist() == [1, 2, 5, 5]
