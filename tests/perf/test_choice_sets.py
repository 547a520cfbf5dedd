"""``repro.perf.choice_sets`` is one ``Generator.choice(p, size,
replace=False)`` call per population: the same index sets, and the
same generator state after the draw, in both of ``choice``'s regimes
(Floyd's algorithm, and the tail shuffle above 10 000 when the sample
is over ``p // 50``).  Needs numpy only."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.perf import choice_sets


def _assert_same_sets(populations, size, seed):
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = choice_sets(mine, populations, size)
    want = [np.sort(theirs.choice(p, size, replace=False))
            for p in populations]
    assert got.dtype == np.int64
    assert got.shape == (len(populations), size)
    for row, expected in zip(got, want):
        assert row.tobytes() == expected.tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state


@st.composite
def draw_cases(draw):
    # Small samples stay in Floyd's regime; 195-310 reach the tail
    # shuffle for populations 10 001-15 500.
    size = draw(st.one_of(st.integers(0, 20), st.integers(195, 310)))
    population = st.one_of(
        st.integers(size + 1, size + 80),
        st.integers(max(size + 1, 10_001), 15_500),
        st.sampled_from([size + 1, max(size + 1, 10_000),
                         max(size + 1, 10_001)]))
    return dict(populations=draw(st.lists(population, max_size=12)),
                size=size, seed=draw(st.integers(0, 2**32 - 1)))


@given(case=draw_cases())
@settings(max_examples=80, deadline=None)
@example(case=dict(populations=[17, 17, 17], size=16, seed=0))
@example(case=dict(populations=[1, 2], size=0, seed=1))
@example(case=dict(populations=[10_000] * 3, size=199, seed=2))
@example(case=dict(populations=[10_000] * 3, size=201, seed=3))
@example(case=dict(populations=[10_001] * 3, size=199, seed=4))
@example(case=dict(populations=[10_001] * 3, size=200, seed=5))
@example(case=dict(populations=[10_001] * 3, size=201, seed=5))
@example(case=dict(populations=[10_001, 10_000, 202, 10_001], size=201,
                   seed=6))
@example(case=dict(populations=[12_000, 12_000], size=241, seed=7))
def test_equals_generator_choice(case):
    _assert_same_sets(case["populations"], case["size"], case["seed"])


def test_consecutive_calls_continue_the_generator():
    mine, theirs = np.random.default_rng(8), np.random.default_rng(8)
    for populations, size in (([40, 35, 900], 16), ([20_000], 401),
                              ([], 5), ([30, 31], 29)):
        got = choice_sets(mine, populations, size)
        for row, p in zip(got, populations):
            want = np.sort(theirs.choice(p, size, replace=False))
            assert row.tobytes() == want.tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("populations, size", [([16, 40], 16), ([3], 5)],
                         ids=["equal", "smaller"])
def test_rejects_a_population_not_over_the_size(populations, size):
    with pytest.raises(ValueError):
        choice_sets(np.random.default_rng(0), populations, size)
