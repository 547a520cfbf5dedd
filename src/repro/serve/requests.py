"""The serving request layer: typed requests/responses and a
reproducible open-loop load generator.

Online inference is evaluated the way the training engines are: in
*simulated* seconds.  A :class:`LoadGenerator` draws a Poisson arrival
process and a query-vertex stream from one seeded rng up front, so a
serving run is a pure function of ``(trace, engine config)`` — no
wall-clock reads, no unseeded randomness — and two runs with the same
seed produce bit-identical latency distributions.  Open-loop means
arrivals do not react to server backpressure (the standard way to
measure tail latency under load: closed-loop generators hide queueing
delay by slowing down with the server).
"""

from __future__ import annotations

from numbers import Integral
from typing import NamedTuple

import numpy as np

from ..errors import ServingError
from ..perf.weighted import WeightedChoice
from .batcher import _check_count

__all__ = ["InferenceRequest", "InferenceResponse", "LoadGenerator"]


class InferenceRequest(NamedTuple):
    """One node-classification query.

    Attributes
    ----------
    request_id:
        Position in the generated trace (unique, dense).
    vertex:
        Global id of the vertex whose label is queried.
    arrival:
        Simulated arrival time in seconds from the start of the run.
    """

    request_id: int
    vertex: int
    arrival: float


class InferenceResponse(NamedTuple):
    """The served answer to one :class:`InferenceRequest`.

    ``completion - request.arrival`` is the request's end-to-end
    latency: queueing delay + batching delay + service time of the
    micro-batch it rode in.  ``degraded`` marks answers served by the
    precomputed-embedding fallback because the sampled path would have
    missed the request's deadline (see ``ServeEngine``).  ``replica``
    identifies the fleet replica that served the answer (always 0 on a
    :class:`~repro.serve.engine.ServeEngine`, the 1-replica fleet).
    """

    request: InferenceRequest
    prediction: int
    completion: float
    batch_id: int
    batch_size: int
    degraded: bool = False
    replica: int = 0

    @property
    def latency(self):
        """End-to-end simulated latency in seconds."""
        return self.completion - self.request.arrival


class LoadGenerator:
    """Seeded open-loop Poisson request generator.

    Parameters
    ----------
    population:
        Candidate query vertices (e.g. a dataset's test split).
    rate:
        Mean arrival rate in requests per simulated second.
    num_requests:
        Trace length.
    seed:
        Seeds both the arrival process and the vertex draw.
    skew:
        Query popularity skew: ``0`` draws vertices uniformly; ``s > 0``
        draws with probability proportional to ``rank**-s`` over a
        seeded shuffle of the population (Zipf-like — the
        "heavy traffic from a few hot entities" regime caches exploit).
    """

    def __init__(self, population, rate, num_requests, seed=0, skew=0.0):
        self.population = np.unique(
            np.asarray(population, dtype=np.int64))
        if len(self.population) == 0:
            raise ServingError("load generator needs a non-empty "
                               "query population")
        if not 0 < rate < np.inf:
            raise ServingError(f"arrival rate must be positive and "
                               f"finite, got {rate}")
        # Integers, not anything ``int()`` accepts: 2.5 requests or
        # seed 1.7 would be truncated without a word.
        _check_count("num_requests", num_requests)
        if not isinstance(seed, Integral) or seed < 0:
            raise ServingError(
                f"seed must be an integer >= 0, got {seed!r}")
        if not skew >= 0:   # nan too
            raise ServingError(f"skew must be >= 0, got {skew}")
        self.rate = float(rate)
        self.num_requests = int(num_requests)
        self.seed = int(seed)
        self.skew = float(skew)

    def generate(self):
        """The full request trace, as a list of
        :class:`InferenceRequest` sorted by arrival time."""
        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(1.0 / self.rate, size=self.num_requests)
        arrivals = np.cumsum(gaps)

        if self.skew > 0:
            # Popularity ranks are assigned by a seeded shuffle so the
            # hot set is arbitrary but reproducible (and uncorrelated
            # with vertex ids or degrees).
            shuffled = rng.permutation(self.population)
            ranks = np.arange(1, len(shuffled) + 1, dtype=np.float64)
            weights = ranks ** -self.skew
            weights /= weights.sum()
            vertices = WeightedChoice(weights, shuffled).draw(
                rng, self.num_requests)
        else:
            vertices = rng.choice(self.population,
                                  size=self.num_requests)

        # tolist() hands over python ints and floats column by column,
        # not one numpy scalar per element; tuple.__new__ builds each
        # record in C, past the namedtuple's python ``__new__``.
        new = tuple.__new__
        return [new(InferenceRequest, row) for row in zip(
            range(self.num_requests), vertices.tolist(),
            arrivals.tolist())]

    def describe(self):
        """Short human-readable parameter summary."""
        return (f"poisson(rate={self.rate:g}/s, n={self.num_requests}, "
                f"skew={self.skew:g}, seed={self.seed})")
