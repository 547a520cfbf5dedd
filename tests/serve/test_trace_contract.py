"""The trace and record contract of both serving engines.

A trace's arrivals must be finite, non-negative and non-decreasing (the
event loop merges the sorted trace past its heap and starts its clock
at 0): ``check_trace`` rejects any other trace with a
:class:`ServingError` naming the first bad request, before anything is
served, where a ``nan`` or ``inf`` arrival used to make requests vanish
from the report and one at -1 s was served at clock 0 with a second of
latency it never waited.  Request ids must all differ (the fleet
keys its bookkeeping by them): a hedged fleet used to answer one of
two requests sharing an id and count the other nowhere.  The records
are named tuples
built by ``tuple.__new__`` at the two bulk sites, and must still be
exactly their classes: immutable, hashable, equal by value, with the
same fields, order, defaults and ``latency``.
"""

import math

import numpy as np
import pytest

from repro import load_dataset
from repro.errors import ServingError
from repro.fleet import FleetEngine, ResiliencePolicy
from repro.nn import build_model
from repro.serve import (InferenceRequest, InferenceResponse,
                         LoadGenerator, ServeEngine)

NAN, INF = math.nan, math.inf


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.1)


@pytest.fixture(scope="module")
def model(data):
    return build_model("gcn", data.feature_dim, data.num_classes,
                       rng=np.random.default_rng(7))


def make_engine(kind, data, model):
    if kind == "serve":
        return ServeEngine(data, model, mode="precomputed")
    return FleetEngine(data, model, partition="hash", num_replicas=2,
                       mode="precomputed")


ENGINES = ["serve", "fleet"]


# ----------------------------------------------------------------------
# Arrivals: finite, non-negative and non-decreasing, or a typed error
# up front
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("arrivals, bad", [
    ([0.0, NAN, 1e-3], 1),
    ([0.0, INF, 1e-3], 1),
    ([NAN, NAN, NAN], 0),
    ([0.0, 2e-3, 1e-3], 2),
    ([0.0, 1e-3, -INF], 2),
    ([-1.0, 0.0, 1e-3], 0),
    ([-1e-3, -1e-3, 0.0], 0),
], ids=["nan", "inf", "all-nan", "decreasing", "minus-inf", "negative",
        "negative-ties"])
def test_bad_arrivals_are_a_serving_error(data, model, kind, arrivals,
                                          bad):
    trace = [InferenceRequest(i, i, arrival)
             for i, arrival in enumerate(arrivals)]
    with pytest.raises(ServingError) as info:
        make_engine(kind, data, model).run(trace)
    message = str(info.value)
    assert message.startswith(
        f"request {bad} arrives at {arrivals[bad]};"), message
    assert "finite arrival times in non-decreasing order" in message


@pytest.mark.parametrize("kind", ENGINES)
def test_equal_and_integer_arrivals_are_served(data, model, kind):
    trace = [InferenceRequest(0, 0, 0), InferenceRequest(1, 1, 0.0),
             InferenceRequest(2, 2, 1e-3), InferenceRequest(3, 3, 1e-3)]
    report = make_engine(kind, data, model).run(trace)
    assert report.completed == 4


# ----------------------------------------------------------------------
# Request ids: all different, or a typed error up front
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("ids, repeated", [
    ([0, 1, 1, 2], 1),
    ([3, 2, 3], 3),
    ([5, 0, 9, 0, 5], 0),
    ([4, 4, 4], 4),
], ids=["adjacent", "after-a-descent", "first-repeat-wins", "all-equal"])
def test_repeated_request_ids_are_a_serving_error(data, model, kind, ids,
                                                  repeated):
    trace = [InferenceRequest(rid, i, 1e-4 * i)
             for i, rid in enumerate(ids)]
    with pytest.raises(ServingError, match=(
            f"^request id {repeated} appears more than once")):
        make_engine(kind, data, model).run(trace)


@pytest.mark.parametrize("kind", ENGINES)
def test_distinct_ids_in_any_order_are_served(data, model, kind):
    trace = [InferenceRequest(rid, i, 1e-4 * i)
             for i, rid in enumerate([7, 2, 9, 0])]
    assert make_engine(kind, data, model).run(trace).completed == 4


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("ids", [[0, 1.5, 1.0], [0.2, 0.7], [2.5, 2, 2.25]],
                         ids=["half-then-whole", "both-below-one",
                              "shared-integer-part"])
def test_fractional_ids_that_truncate_alike_are_served(data, model, kind,
                                                       ids):
    """Distinct ids whose integer parts collide: ``check_trace`` reads
    ids as int64 first, which truncates them, and rejected these as
    repeated."""
    trace = [InferenceRequest(rid, i, 1e-4 * i)
             for i, rid in enumerate(ids)]
    report = make_engine(kind, data, model).run(trace)
    assert report.completed == len(ids)


@pytest.mark.parametrize("kind", ENGINES)
def test_a_fractional_id_repeated_is_a_serving_error(data, model, kind):
    trace = [InferenceRequest(rid, i, 1e-4 * i)
             for i, rid in enumerate([0, 1.5, 1.0, 1.5])]
    with pytest.raises(ServingError,
                       match="^request id 1.5 appears more than once"):
        make_engine(kind, data, model).run(trace)


def test_a_hedged_fleet_does_not_lose_repeated_ids_silently(data,
                                                            model):
    """Every odd request of a 200-request trace under id 7: a hedged
    fleet answered one of them and counted the other 99 nowhere
    (``completed`` 101, ``rejected`` 0)."""
    trace = LoadGenerator(data.test_ids, rate=5000.0, num_requests=200,
                          seed=0).generate()
    trace = [r._replace(request_id=7) if r.request_id % 2 else r
             for r in trace]
    engine = FleetEngine(data, model, partition="hash", num_replicas=2,
                         mode="precomputed",
                         resilience=ResiliencePolicy())
    with pytest.raises(ServingError, match="^request id 7 appears"):
        engine.run(trace)


# ----------------------------------------------------------------------
# The records
# ----------------------------------------------------------------------
def test_request_fields_and_order():
    assert InferenceRequest._fields == ("request_id", "vertex", "arrival")
    assert InferenceRequest._field_defaults == {}
    request = InferenceRequest(request_id=3, vertex=9, arrival=0.5)
    assert request == InferenceRequest(3, 9, 0.5)
    assert tuple(request) == (3, 9, 0.5)


def test_response_fields_order_defaults_and_latency():
    assert InferenceResponse._fields == (
        "request", "prediction", "completion", "batch_id", "batch_size",
        "degraded", "replica")
    assert InferenceResponse._field_defaults == {"degraded": False,
                                                 "replica": 0}
    request = InferenceRequest(0, 4, 0.25)
    response = InferenceResponse(request, 2, 1.0, 5, 8)
    assert (response.degraded, response.replica) == (False, 0)
    assert response.latency == 1.0 - 0.25
    assert response == InferenceResponse(request=request, prediction=2,
                                         completion=1.0, batch_id=5,
                                         batch_size=8, degraded=False,
                                         replica=0)


@pytest.mark.parametrize("record, field", [
    (InferenceRequest(0, 1, 0.0), "arrival"),
    (InferenceResponse(InferenceRequest(0, 1, 0.0), 2, 1.0, 0, 1),
     "prediction"),
])
def test_records_are_immutable_and_hashable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert hash(record) == hash(type(record)(*record))
    assert len({record, type(record)(*record)}) == 1


def test_bulk_sites_build_exact_record_instances(data, model):
    trace = LoadGenerator(data.test_ids, rate=5000.0, num_requests=64,
                          seed=2, skew=0.5).generate()
    assert all(type(r) is InferenceRequest for r in trace)
    assert trace == [InferenceRequest(r.request_id, r.vertex, r.arrival)
                     for r in trace]
    for kind in ENGINES:
        responses = make_engine(kind, data, model).run(trace).responses
        assert len(responses) == len(trace)
        assert all(type(r) is InferenceResponse
                   and type(r.request) is InferenceRequest
                   for r in responses)
        assert all(r == InferenceResponse(*r) for r in responses)
