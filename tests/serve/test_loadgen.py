"""The request layer: deterministic seeded open-loop load generation."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serve import InferenceRequest, LoadGenerator


POPULATION = np.arange(50, 250)


class TestLoadGenerator:
    def test_same_seed_identical_trace(self):
        gen = LoadGenerator(POPULATION, rate=1000.0, num_requests=300,
                            seed=7, skew=0.9)
        first = gen.generate()
        second = gen.generate()
        assert [(r.request_id, r.vertex, r.arrival) for r in first] \
            == [(r.request_id, r.vertex, r.arrival) for r in second]

    def test_different_seeds_differ(self):
        a = LoadGenerator(POPULATION, 1000.0, 100, seed=1).generate()
        b = LoadGenerator(POPULATION, 1000.0, 100, seed=2).generate()
        assert [r.arrival for r in a] != [r.arrival for r in b]

    def test_arrivals_sorted_and_positive(self):
        trace = LoadGenerator(POPULATION, 500.0, 200, seed=3).generate()
        arrivals = [r.arrival for r in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_rate_matches_mean_gap(self):
        trace = LoadGenerator(POPULATION, 2000.0, 5000,
                              seed=0).generate()
        mean_gap = trace[-1].arrival / len(trace)
        assert mean_gap == pytest.approx(1.0 / 2000.0, rel=0.1)

    def test_vertices_from_population(self):
        trace = LoadGenerator(POPULATION, 1000.0, 400,
                              seed=4, skew=1.2).generate()
        assert all(50 <= r.vertex < 250 for r in trace)

    def test_skew_concentrates_queries(self):
        def top_share(skew):
            trace = LoadGenerator(POPULATION, 1000.0, 2000, seed=5,
                                  skew=skew).generate()
            counts = np.bincount([r.vertex for r in trace])
            counts = np.sort(counts)[::-1]
            return counts[:10].sum() / counts.sum()

        assert top_share(1.5) > top_share(0.0) + 0.1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServingError):
            LoadGenerator([], 100.0, 10)
        with pytest.raises(ServingError):
            LoadGenerator(POPULATION, 0.0, 10)
        with pytest.raises(ServingError):
            LoadGenerator(POPULATION, 100.0, 0)
        with pytest.raises(ServingError):
            LoadGenerator(POPULATION, 100.0, 10, skew=-1.0)

    @pytest.mark.parametrize("rate, skew", [
        (float("nan"), 0.0), (float("inf"), 0.0), (100.0, float("nan")),
    ], ids=["rate-nan", "rate-inf", "skew-nan"])
    def test_non_finite_parameters_rejected(self, rate, skew):
        # nan rates drew nan arrivals, an inf rate an all-zero trace,
        # and a nan skew passed ``skew < 0`` into nan weights.
        with pytest.raises(ServingError, match="must be"):
            LoadGenerator(POPULATION, rate, 10, skew=skew)

    @pytest.mark.parametrize("num_requests", [
        2.5, float("nan"), "3", None, 0, -1, np.float64(4.0)],
        ids=["fraction", "nan", "string", "none", "zero", "negative",
             "numpy-float"])
    def test_request_count_must_be_an_integer(self, num_requests):
        # 2.5 generated 2 requests, nan raised a bare ValueError and
        # "3" a TypeError.
        with pytest.raises(ServingError,
                           match="num_requests must be an integer >= 1"):
            LoadGenerator(POPULATION, 100.0, num_requests)

    @pytest.mark.parametrize("seed", [1.7, float("nan"), "3", None, -1],
                             ids=["fraction", "nan", "string", "none",
                                  "negative"])
    def test_seed_must_be_an_integer(self, seed):
        # 1.7 was truncated to seed 1 without a word.
        with pytest.raises(ServingError,
                           match="seed must be an integer >= 0"):
            LoadGenerator(POPULATION, 100.0, 10, seed=seed)

    def test_numpy_integers_are_integers(self):
        gen = LoadGenerator(POPULATION, 100.0, np.int64(12),
                            seed=np.uint32(5))
        assert (gen.num_requests, gen.seed) == (12, 5)
        assert type(gen.num_requests) is int and type(gen.seed) is int
        assert len(gen.generate()) == 12

    def test_request_ids_dense(self):
        trace = LoadGenerator(POPULATION, 100.0, 50, seed=6).generate()
        assert [r.request_id for r in trace] == list(range(50))


def _scalar_trace(gen):
    """The trace built the way ``generate`` did before it read
    ``tolist()`` columns: one numpy scalar per element, converted."""
    rng = np.random.default_rng(gen.seed)
    arrivals = np.cumsum(rng.exponential(1.0 / gen.rate,
                                         size=gen.num_requests))
    if gen.skew > 0:
        shuffled = rng.permutation(gen.population)
        weights = np.arange(1, len(shuffled) + 1,
                            dtype=np.float64) ** -gen.skew
        weights /= weights.sum()
        vertices = rng.choice(shuffled, size=gen.num_requests, p=weights)
    else:
        vertices = rng.choice(gen.population, size=gen.num_requests)
    return [InferenceRequest(request_id=i, vertex=int(vertices[i]),
                             arrival=float(arrivals[i]))
            for i in range(gen.num_requests)]


@pytest.mark.parametrize("skew", [0.0, 1.1])
def test_trace_equals_per_element_construction(skew):
    gen = LoadGenerator(POPULATION, 750.0, 2000, seed=12, skew=skew)
    trace = gen.generate()
    assert trace == _scalar_trace(gen)
    assert all(type(r.vertex) is int and type(r.arrival) is float
               for r in trace)
