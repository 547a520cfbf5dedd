"""The response ledger: a run's answers as columns, read as responses.

A dispatch returns one :class:`~repro.serve.metrics.BatchRow` and the
run collects the rows into one :class:`~repro.serve.metrics.ResponseLedger`
instead of building an :class:`~repro.serve.requests.InferenceResponse`
per answer.  What must not change is what a reader sees: the same
responses, tuple for tuple and type for type, in the same order, with
``len`` and ``[i]`` as on a list.  The reference is kept here:
:func:`parent_responses` swaps in the dispatch comprehension, the
``batch`` / ``response`` handlers and the per-response totals the ledger
replaced, so that one configuration can be run both ways.
"""

import gc
from contextlib import contextmanager
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_dataset
from repro.core.config import make_partitioner
from repro.fleet import FleetEngine, ResiliencePolicy, RoutingPolicy
from repro.fleet.engine import ANSWERED, _FleetRun
from repro.nn import build_model
from repro.serve import (BatchPolicy, InferenceRequest, InferenceResponse,
                         LayerwiseEmbeddings, LoadGenerator, ServeEngine)
from repro.serve.loop import RESPONSE, EventLoop, ServeNode, run_totals
from repro.serve.metrics import BatchRow, ResponseLedger


# ----------------------------------------------------------------------
# The per-response list the ledger replaced, kept as the reference
# ----------------------------------------------------------------------
def _parent_dispatch(self, clock, straggle=1.0, slowlink=1.0):
    batch = self.batcher.take()
    self.ready_at = None
    if self.deadline is not None:
        live = [r for r in batch
                if clock <= r.arrival + self.deadline]
        self.shed += len(batch) - len(live)
        batch = live
        if not batch:
            return []
    degrade = (
        self.fallback and self._service_estimate is not None
        and clock + self._service_estimate
        > min(r.arrival for r in batch) + self.deadline)

    vertices = np.array([r.vertex for r in batch], dtype=np.int64)
    if degrade:
        predictions, bp, dt, nn = \
            self.executor.execute_degraded(vertices)
        self.degraded += len(batch)
    else:
        predictions, bp, dt, nn = self.executor.execute(vertices,
                                                        self.rng)
    service = bp + dt + nn
    if self.fallback and not degrade:
        self._service_estimate = service \
            if self._service_estimate is None \
            else 0.5 * (self._service_estimate + service)
    if slowlink != 1.0:
        service += self.executor.last_remote_seconds \
            * (1.0 / slowlink - 1.0)
    if straggle != 1.0:
        service *= straggle
    completion = clock + service
    self.free_at = completion

    self.completed += len(batch)
    self.bp_seconds += bp
    self.dt_seconds += dt
    self.nn_seconds += nn
    if self.executor.last_remote_rows == 0:
        self.zero_remote_completed += len(batch)

    self.latencies.extend([completion - r.arrival for r in batch])
    batch_id, batch_size, node_id = \
        self.num_batches, len(batch), self.node_id
    self.num_batches += 1
    new = tuple.__new__
    return [new(InferenceResponse, (request, prediction, completion,
                                    batch_id, batch_size, degrade,
                                    node_id))
            for request, prediction
            in zip(batch, predictions.tolist())]


def _parent_collect(self, dispatched):
    self.responses.extend(dispatched[1])


def _parent_on_response(self, responses):
    fate, hedge_target = self.fate, self.hedge_target
    latencies, answered = self.latencies, self.loop.responses
    for response in responses:
        rid = response.request.request_id
        if fate.get(rid) == ANSWERED:
            self.hedges_wasted += 1
            continue
        fate[rid] = ANSWERED     # an earlier copy may have been lost
        latencies.append(response.completion - response.request.arrival)
        answered.append(response)
        if rid not in hedge_target:
            continue
        if response.replica == hedge_target[rid]:
            self.hedges_won += 1
        for other in [self.routed[rid],
                      *self.later_copies.get(rid, ())]:
            if other != response.replica \
                    and self.replicas[other].cancel(rid):
                self.hedges_cancelled += 1


def _parent_defer_responses(self, dispatched):
    responses = dispatched[1]
    if responses:
        self.loop.schedule(responses[0].completion, RESPONSE,
                           "response", responses)


class ResponseList(list):
    """The run's responses as one list, with the ledger's numpy readers
    computed from the tuples, the way the report used to."""

    def _column(self, path, dtype):
        return np.fromiter(map(attrgetter(path), self), dtype=dtype,
                           count=len(self))

    def predictions(self):
        return self._column("prediction", np.int64)

    def vertices(self):
        return self._column("request.vertex", np.int64)

    def completions(self):
        return self._column("completion", np.float64)

    def last_completion(self):
        return float(self.completions().max()) if self else 0.0

    def latencies(self):
        return np.array([r.latency for r in self], dtype=np.float64)


@contextmanager
def parent_responses():
    """Run both engines on per-response lists within the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServeNode, "dispatch", _parent_dispatch)
        patch.setattr(EventLoop, "collect", _parent_collect)
        patch.setattr(_FleetRun, "on_response", _parent_on_response)
        patch.setattr(_FleetRun, "defer_responses",
                      _parent_defer_responses)
        patch.setattr("repro.serve.loop.ResponseLedger", ResponseList)
        yield


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    data = load_dataset("ogb-arxiv", scale=0.15)
    model = build_model("gcn", data.feature_dim, data.num_classes,
                        rng=np.random.default_rng(7))
    embeddings = LayerwiseEmbeddings(model, data.graph, data.features)
    partitions = {
        (name, k): make_partitioner(name).partition(
            data.graph, k, split=data.split,
            rng=np.random.default_rng(0))
        for name in ("hash", "metis-v") for k in (1, 2, 3)}
    return data, model, embeddings, partitions


def trace_for(data, rate, num_requests, seed):
    return LoadGenerator(data.test_ids, rate=rate,
                         num_requests=num_requests, seed=seed,
                         skew=0.8).generate()


def fleet_run(world, trace, replicas=2, partitioner="metis-v",
              hedged=False, crash=False):
    data, model, embeddings, partitions = world
    span = trace[-1].arrival
    kwargs = dict(
        partition=partitions[partitioner, replicas], mode="precomputed",
        embeddings=embeddings,
        policy=BatchPolicy(max_batch_size=8, max_wait=2e-4),
        cache_policy="lfu", cache_ratio=0.1, warm_ratio=0.1, seed=1,
        routing=RoutingPolicy(spill_threshold=16))
    if crash:
        kwargs["schedule"] = (f"crash@{0.2 * span:.6f}+{0.3 * span:.6f}"
                              f":w0")
    if hedged:
        kwargs.update(resilience=ResiliencePolicy(),
                      replication=min(2, replicas))
    return FleetEngine(data, model, **kwargs).run(trace)


def typed(responses):
    """Each response as its values and their exact python types."""
    return [(tuple(r), tuple(map(type, r)), type(r)) for r in responses]


# ----------------------------------------------------------------------
# No object per answer
# ----------------------------------------------------------------------
def live(kind):
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is kind)


def test_a_run_leaves_no_response_object_alive(world):
    trace = trace_for(world[0], 2e5, 400, 3)
    before = live(InferenceResponse), live(BatchRow)
    report = fleet_run(world, trace)
    assert report.completed > 0
    assert (live(InferenceResponse), live(BatchRow)) == before
    assert len(report.responses) == report.completed
    # The probe sees the objects the per-response list kept.
    with parent_responses():
        held = fleet_run(world, trace)
    assert live(InferenceResponse) == before[0] + held.completed


# ----------------------------------------------------------------------
# Reading: iteration, types, len and [i]
# ----------------------------------------------------------------------
def test_iterating_twice_yields_equal_responses_of_the_parents_types(
        world):
    trace = trace_for(world[0], 2e5, 300, 1)
    report = fleet_run(world, trace, hedged=True, crash=True)
    first, second = list(report.responses), list(report.responses)
    assert first == second and len(first) == report.completed
    with parent_responses():
        reference = fleet_run(world, trace, hedged=True, crash=True)
    assert typed(first) == typed(reference.responses)
    assert all(type(r) is InferenceResponse
               and type(r.request) is InferenceRequest
               and type(r.prediction) is int and type(r.batch_id) is int
               and type(r.batch_size) is int and type(r.replica) is int
               and type(r.degraded) is bool for r in first)


def hand_ledger(sizes, appended):
    """A ledger of rows of ``sizes`` (0 allowed), then ``appended``
    single responses."""
    ledger, rid = ResponseLedger(), 0
    for batch_id, size in enumerate(sizes):
        requests = [InferenceRequest(rid + i, 10 + rid + i, 0.1 * rid)
                    for i in range(size)]
        rid += size
        ledger.add(BatchRow(
            requests, np.arange(size, dtype=np.int64) % 3,
            np.array([r.vertex for r in requests], dtype=np.int64),
            1.0 + batch_id, batch_id, max(size, 1), batch_id % 2 == 1,
            batch_id % 3))
    for i in range(appended):
        ledger.append(InferenceResponse(
            InferenceRequest(rid + i, 5, 0.0), i, 9.0, 99, 4, True, 2))
    return ledger


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(0, 5), max_size=8),
       appended=st.integers(0, 3))
def test_len_and_indexing_behave_as_on_a_list(sizes, appended):
    ledger = hand_ledger(sizes, appended)
    as_list = list(ledger)
    assert len(ledger) == len(as_list) == sum(sizes) + appended
    for position in range(-len(as_list), len(as_list)):
        assert ledger[position] == as_list[position]
        assert type(ledger[position]) is InferenceResponse
        assert typed([ledger[position]]) == typed([as_list[position]])
    for position in (len(as_list), -len(as_list) - 1):
        with pytest.raises(IndexError):
            ledger[position]
    with pytest.raises(TypeError):
        ledger[0.5]
    # A read does not freeze the ledger: rows added later are read too.
    grown = hand_ledger(sizes, 0)
    assert list(grown) == as_list[:sum(sizes)]
    for response in as_list[sum(sizes):]:
        grown.append(response)
        assert grown[-1] == response
    assert list(grown) == as_list
    assert np.array_equal(ledger.predictions(),
                          [r.prediction for r in as_list])
    assert np.array_equal(ledger.vertices(),
                          [r.request.vertex for r in as_list])
    assert np.array_equal(ledger.completions(),
                          [r.completion for r in as_list])
    assert np.array_equal(ledger.latencies(),
                          [r.latency for r in as_list])


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(0, 5), max_size=8),
       appended=st.integers(0, 3))
def test_the_last_completion_skips_rows_without_answers(sizes, appended):
    """``hand_ledger``'s rows complete later the later they come, so a
    trailing empty row would be the maximum if it counted."""
    ledger = hand_ledger(sizes, appended)
    last = ledger.last_completion()
    assert type(last) is float
    assert last == (float(ledger.completions().max()) if len(ledger)
                    else 0.0)


def test_a_row_reads_as_its_responses():
    requests = [InferenceRequest(i, 20 + i, 0.0) for i in range(4)]
    row = BatchRow(requests, np.array([2, 0, 1, 2]),
                   np.array([20, 21, 22, 23]), 0.5, 7, 4, False, 1)
    expected = [InferenceResponse(r, p, 0.5, 7, 4, False, 1)
                for r, p in zip(requests, [2, 0, 1, 2])]
    assert list(row) == expected
    assert typed(row) == typed(expected)
    part = row.without([0, 2])
    assert list(part) == [expected[1], expected[3]]
    assert part.vertices.tolist() == [21, 23] and part.batch_size == 4


# ----------------------------------------------------------------------
# Generated: the ledger reads as the per-response list, tuple for tuple
# ----------------------------------------------------------------------
def both_ways(run):
    report = run()
    with parent_responses():
        reference = run()
    assert typed(report.responses) == typed(reference.responses)
    assert report.to_dict() == reference.to_dict()
    return report


@settings(max_examples=12, deadline=None)
@given(replicas=st.integers(1, 3),
       partitioner=st.sampled_from(["hash", "metis-v"]),
       hedged=st.booleans(), crash=st.booleans(),
       rate=st.sampled_from([2e4, 2e5]), trace_seed=st.integers(0, 5))
def test_fleet_responses_equal_the_per_response_list(world, replicas,
                                                     partitioner, hedged,
                                                     crash, rate,
                                                     trace_seed):
    trace = trace_for(world[0], rate, 150, trace_seed)
    both_ways(lambda: fleet_run(world, trace, replicas, partitioner,
                                hedged, crash))


@settings(max_examples=10, deadline=None)
@given(deadline=st.sampled_from([2e-5, 1e-4, 5e-4, 2e-3]),
       fallback=st.booleans(), max_batch_size=st.integers(1, 8),
       trace_seed=st.integers(0, 5))
def test_deadline_responses_equal_the_per_response_list(
        world, deadline, fallback, max_batch_size, trace_seed):
    data, model, embeddings, _ = world
    trace = trace_for(data, 2e4, 60, trace_seed)
    report = both_ways(lambda: ServeEngine(
        data, model, mode="sampled", fanout=(4, 4),
        embeddings=embeddings, deadline=deadline, fallback=fallback,
        policy=BatchPolicy(max_batch_size=max_batch_size,
                           max_wait=1e-4), seed=1).run(trace))
    assert report.deadline_misses == sum(
        1 for r in report.responses if r.latency > deadline)


def test_a_hedge_race_keeps_only_the_winners(world):
    """Directed: a hedged crash run where some twins lose, so a row
    that is only partly answered is added without its losers."""
    trace = trace_for(world[0], 2e5, 300, 0)
    report = both_ways(lambda: fleet_run(world, trace, 2, "metis-v",
                                         hedged=True, crash=True))
    assert report.resilience["hedges_wasted"] > 0
    ids = [r.request.request_id for r in report.responses]
    assert len(ids) == len(set(ids)) == report.completed


@pytest.mark.parametrize("trace_seed", [1, 2, 4])
def test_a_hedged_run_lasts_until_its_last_answer(world, trace_seed):
    """Directed: hedged crash runs that add rows whose every copy lost
    (``BatchRow.without`` left them empty).  At trace seeds 1 and 2 such
    a row completes after every answer, so counting it would stretch
    ``duration_seconds``."""
    trace = trace_for(world[0], 2e5, 300, trace_seed)
    report = fleet_run(world, trace, 2, "metis-v", hedged=True,
                       crash=True)
    ledger = report.responses
    answers = list(map(len, ledger._arrays[::2]))
    assert report.resilience["hedges_wasted"] > 0 and 0 in answers
    last = float(ledger.completions().max())
    assert ledger.last_completion() == last
    assert report.duration_seconds == last
    assert run_totals(ledger, world[0].labels)["duration_seconds"] == last
    if trace_seed in (1, 2):
        assert max(ledger._shared[::5]) > last
