"""Serving under deadlines: load shedding, degraded fallback, and the
report's deadline accounting."""

import numpy as np
import pytest

from repro import load_dataset
from repro.errors import ServingError
from repro.nn import build_model
from repro.serve import (BatchPolicy, LayerwiseEmbeddings, LoadGenerator,
                         ServeEngine)


@pytest.fixture(scope="module")
def data():
    return load_dataset("ogb-arxiv", scale=0.15)


@pytest.fixture(scope="module")
def model(data):
    return build_model("gcn", data.feature_dim, data.num_classes,
                       rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def trace(data):
    return LoadGenerator(data.test_ids, rate=2000.0, num_requests=150,
                         seed=1, skew=0.8).generate()


def make_engine(data, model, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch_size=8,
                                            max_wait=0.001))
    return ServeEngine(data, model, mode="sampled", fanout=(5, 5),
                       seed=0, **kwargs)


class TestValidation:
    def test_rejects_nonpositive_deadline(self, data, model):
        with pytest.raises(ServingError):
            make_engine(data, model, deadline=0.0)

    def test_rejects_nan_deadline(self, data, model):
        """``nan <= 0`` is false: a NaN deadline used to pass and then
        shed every request."""
        with pytest.raises(ServingError, match="positive number"):
            make_engine(data, model, deadline=float("nan"))

    def test_rejects_string_deadline(self, data, model):
        with pytest.raises(ServingError, match="positive number"):
            make_engine(data, model, deadline="0.001")

    def test_fallback_needs_deadline(self, data, model):
        with pytest.raises(ServingError):
            make_engine(data, model, fallback=True)

    def test_fallback_only_in_sampled_mode(self, data, model):
        embeddings = LayerwiseEmbeddings(model, data.graph,
                                         data.features)
        with pytest.raises(ServingError):
            ServeEngine(data, model, mode="precomputed",
                        embeddings=embeddings, deadline=0.01,
                        fallback=True)


class TestDeadlineAccounting:
    def test_no_deadline_means_no_shedding(self, data, model, trace):
        report = make_engine(data, model).run(trace)
        assert report.deadline == 0.0
        assert report.shed == 0
        assert report.degraded == 0
        assert report.deadline_misses == 0
        assert report.shed_rate == 0.0

    def test_loose_deadline_sheds_nothing(self, data, model, trace):
        report = make_engine(data, model, deadline=10.0).run(trace)
        assert report.shed == 0
        assert report.deadline_misses == 0
        assert report.completed + report.rejected == len(trace)

    def test_tight_deadline_sheds_expired_requests(self, data, model,
                                                   trace):
        plain = make_engine(data, model).run(trace)
        tight = plain.latency_p50
        report = make_engine(data, model, deadline=tight).run(trace)
        assert report.deadline == tight
        assert report.shed > 0
        assert 0.0 < report.shed_rate <= 1.0
        assert report.completed + report.rejected + report.shed \
            == len(trace)
        # Completed responses that outlived the deadline are misses.
        late = sum(1 for r in report.responses
                   if r.latency > tight)
        assert report.deadline_misses == late

    def test_report_dict_carries_degradation_fields(self, data, model,
                                                    trace):
        report = make_engine(data, model, deadline=0.01).run(trace)
        out = report.to_dict()
        for key in ("deadline", "shed", "degraded", "deadline_misses",
                    "shed_rate", "deadline_miss_rate"):
            assert key in out
        assert "responses" not in out


class TestDegradedFallback:
    def test_fallback_reduces_tail_latency(self, data, model, trace):
        plain = make_engine(data, model).run(trace)
        tight = plain.latency_p50
        degraded = make_engine(data, model, deadline=tight,
                               fallback=True).run(trace)
        assert degraded.degraded > 0
        # Degraded batches skip sampling entirely, so the tail falls.
        assert degraded.latency_p99 < plain.latency_p99
        flagged = [r for r in degraded.responses if r.degraded]
        assert len(flagged) == degraded.degraded

    def test_degraded_answers_match_precomputed_table(self, data, model,
                                                      trace):
        plain = make_engine(data, model).run(trace)
        embeddings = LayerwiseEmbeddings(model, data.graph,
                                         data.features)
        # Degraded batches answer through the answer table's one read.
        served = []
        answers = embeddings.answers

        def spy(vertices):
            served.extend(vertices)
            return answers(vertices)

        embeddings.answers = spy
        report = make_engine(data, model, deadline=plain.latency_p50,
                             fallback=True,
                             embeddings=embeddings).run(trace)
        flagged = [r for r in report.responses if r.degraded]
        assert flagged
        vertices = np.array([r.request.vertex for r in flagged])
        assert sorted(served) == sorted(vertices.tolist())
        expected = embeddings.logits(vertices).argmax(axis=-1)
        assert [r.prediction for r in flagged] == list(expected)
        assert [r.prediction for r in flagged] \
            == answers(vertices).tolist()

    def test_degraded_run_is_deterministic(self, data, model, trace):
        def run():
            report = make_engine(data, model, deadline=0.001,
                                 fallback=True).run(trace)
            return ([(r.request.request_id, r.prediction, r.completion,
                      r.degraded) for r in report.responses],
                    report.shed, report.degraded)

        assert run() == run()
