"""``repro.perf.WeightedChoice`` is ``Generator.choice(a, size, p=p)``:
the same values, dtype and bytes, and the same generator state after
the draw, so every graph and request trace drawn through it is the one
``choice`` drew.  Needs numpy only."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.perf import WeightedChoice


def _weights(kind, length, rng):
    """Unnormalized weights of one of the shapes the set-up path draws
    from, plus the degenerate ones ``choice`` accepts."""
    if kind == "flat":
        return 1.0 + 0.1 * rng.random(length)
    if kind == "power-law":
        return (rng.permutation(length) + 1.0) ** -rng.uniform(0.3, 2.0)
    if kind == "zeros":
        weights = rng.random(length)
        weights[rng.random(length) < 0.5] = 0.0
        weights[rng.integers(length)] = 1.0
        return weights
    if kind == "single":
        weights = np.zeros(length)
        weights[rng.integers(length)] = 3.0
        return weights
    # "uniform": cdf values i / length, on bucket edges when length is a
    # power of two.
    return np.ones(length)


KINDS = ("flat", "power-law", "zeros", "single", "uniform")


def _assert_same_draws(p, population, size, seed):
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = WeightedChoice(p, population).draw(mine, size)
    want = theirs.choice(len(p) if population is None else population,
                         size=size, p=p)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state


@st.composite
def draw_cases(draw):
    length = draw(st.one_of(st.integers(1, 40), st.integers(41, 60_000)))
    return dict(
        kind=draw(st.sampled_from(KINDS)), length=length,
        size=draw(st.one_of(st.sampled_from([0, 1, 200_000]),
                            st.integers(0, 5_000))),
        population=draw(st.sampled_from([None, "ids", "floats"])),
        seed=draw(st.integers(0, 2**32 - 1)))


@given(case=draw_cases())
@settings(max_examples=60, deadline=None)
@example(case=dict(kind="single", length=1, size=0, population=None, seed=0))
@example(case=dict(kind="power-law", length=60_000, size=200_000,
                   population="ids", seed=1))
@example(case=dict(kind="zeros", length=7, size=200_000, population=None,
                   seed=2))
def test_equals_generator_choice(case):
    rng = np.random.default_rng(case["seed"])
    weights = _weights(case["kind"], case["length"], rng)
    p = weights / weights.sum()
    population = {
        None: None,
        "ids": rng.permutation(case["length"]) * 7 - 3,
        "floats": rng.random(case["length"])}[case["population"]]
    _assert_same_draws(p, population, case["size"], case["seed"])


class _FixedDoubles:
    """An rng whose ``random`` returns chosen doubles."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        assert size == len(self.values)
        return self.values.copy()


@given(kind=st.sampled_from(KINDS), length=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_exact_at_every_cdf_value_and_bucket_edge(kind, length, seed):
    """Uniforms landing exactly on a cdf value or a bucket boundary (and
    one ulp below each) — where a mis-sized bucket or a ``side="left"``
    search would disagree with ``choice``'s ``searchsorted(..., "right")``."""
    weights = _weights(kind, length, np.random.default_rng(seed))
    sampler = WeightedChoice(weights / weights.sum())
    cdf = sampler.cdf
    buckets = 1 << (8 * length - 1).bit_length()
    edges = np.arange(buckets) / buckets
    u = np.concatenate([cdf, edges, np.nextafter(cdf, 0),
                        np.nextafter(edges, 0)])
    u = u[(u >= 0) & (u < 1)]
    got = sampler.draw(_FixedDoubles(u), len(u))
    np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))


def test_reused_across_draws():
    """One table serves every draw: consecutive draws continue the
    generator exactly as consecutive ``choice`` calls do."""
    rng = np.random.default_rng(3)
    weights = _weights("power-law", 5_000, rng)
    p = weights / weights.sum()
    sampler = WeightedChoice(p)
    mine, theirs = np.random.default_rng(4), np.random.default_rng(4)
    for size in (10, 0, 70_000, 1, 3_000):
        got = sampler.draw(mine, size)
        assert got.tobytes() == theirs.choice(len(p), size, p=p).tobytes()
    assert mine.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("p, population", [
    ([], None),
    ([[0.5, 0.5]], None),
    ([0.5, np.nan], None),
    ([0.5, np.inf], None),
    ([1.5, -0.5], None),
    ([0.0, 0.0], None),
    ([0.5, 0.5], np.arange(3)),
], ids=["empty", "2-d", "nan", "inf", "negative", "zero-sum",
        "population-length"])
def test_rejects_what_choice_rejects(p, population):
    with pytest.raises(ValueError):
        WeightedChoice(p, population)
