"""Golden serving runs, pinned byte for byte.

``tests/golden/serving_runs.json`` holds, per engine configuration:

* ``responses_sha256`` — the sha256 of every response as
  ``(request_id, prediction, completion, batch_size, replica,
  degraded)``, sorted by request id;
* ``report`` — the report dict (``to_dict()``, which omits the
  responses) in clear JSON, so a change of report schema shows as
  added or removed keys and a moved value shows as that one line;
* ``summary`` — a short line showing that the configuration exercises
  what its name says (sheds > 0, degraded > 0, requeued > 0, ...).

The runs were first recorded at the commit *before* ``ServeEngine`` and
``FleetEngine`` moved onto the one serving event loop
(:mod:`repro.serve.loop`), so the loop must reproduce both hand-rolled
loops exactly — every completion time, batch boundary, rejection,
shed, degraded answer, failover, hedge and scale event.

``InferenceResponse.batch_id`` is deliberately left out: nothing reads
it and the two old loops numbered it differently.

Regenerate (only for an *intentional* change of simulated behaviour,
and say so in the commit message)::

    PYTHONPATH=src python tests/serve/test_golden_runs.py

An entry still in the older one-digest form (``sha256`` over the rows
and the report together) is re-encoded only if that digest reproduces.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import load_dataset
from repro.fleet import (AutoscalePolicy, FleetEngine, ReplicaRecovery,
                         ResiliencePolicy, RoutingPolicy)
from repro.fleet.chaos import crash_storm
from repro.nn import build_model
from repro.serve import (BatchPolicy, LayerwiseEmbeddings, LoadGenerator,
                         ServeEngine)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" \
    / "serving_runs.json"

CACHES = {
    "nocache": dict(),
    "flat-lru": dict(cache_policy="lru", cache_ratio=0.1),
    "tiered-lfu": dict(cache_policy="lfu", cache_ratio=0.1,
                       warm_ratio=0.1),
}
#: Per mode: an arrival rate low enough that ``max_wait`` flushes
#: partial batches, and a deadline inside that wait so the head of a
#: timed-out batch is shed (and, with ``fallback``, the next-oldest
#: requests are answered degraded).
MODES = {
    "sampled": dict(rate=3000.0, deadline=0.0006),
    "full": dict(rate=5000.0, deadline=0.0007),
    "precomputed": dict(rate=2000.0, deadline=0.0005),
}
SERVE_POLICY = BatchPolicy(max_batch_size=8, max_wait=0.001)
FLEET_POLICY = BatchPolicy(max_batch_size=16, max_wait=0.0005)

_STATE = {}


def _fixture():
    """Dataset, model, embeddings and traces, built once per process."""
    if not _STATE:
        data = load_dataset("ogb-arxiv", scale=0.15)
        model = build_model("gcn", data.feature_dim, data.num_classes,
                            rng=np.random.default_rng(7))
        _STATE.update(
            data=data, model=model,
            embeddings=LayerwiseEmbeddings(model, data.graph,
                                           data.features))
    return _STATE


def _trace(rate, num_requests, seed=1):
    data = _fixture()["data"]
    return LoadGenerator(data.test_ids, rate=rate,
                         num_requests=num_requests, seed=seed,
                         skew=0.8).generate()


# ----------------------------------------------------------------------
# The configurations
# ----------------------------------------------------------------------
def _serve_case(mode, cache, deadline=None, fallback=False,
                max_queue=None, rate=None):
    def run(_scratch):
        state = _fixture()
        kwargs = dict(CACHES[cache])
        if mode != "sampled" or fallback:
            kwargs["embeddings"] = state["embeddings"]
        engine = ServeEngine(
            state["data"], state["model"], mode=mode,
            policy=SERVE_POLICY, fanout=(5, 5), seed=3,
            deadline=deadline,
            fallback=fallback, max_queue=max_queue, **kwargs)
        return engine.run(_trace(rate or MODES[mode]["rate"], 160))
    return run


def _fleet_case(num_requests=400, rate=60000.0, mode="precomputed",
                **extra):
    def run(scratch):
        state = _fixture()
        kwargs = dict(
            partition="metis-v", num_replicas=4, mode=mode,
            policy=FLEET_POLICY, max_queue=64, cache_policy="lfu",
            cache_ratio=0.1, warm_ratio=0.1, seed=2, fanout=(5, 5),
            routing=RoutingPolicy(spill_threshold=8,
                                  remote_penalty=8.0))
        if mode != "sampled":
            kwargs["embeddings"] = state["embeddings"]
        trace = _trace(rate, num_requests, seed=0)
        span = trace[-1].arrival
        for name, value in sorted(extra.items()):
            kwargs[name] = value(span, scratch) if callable(value) \
                else value
        return FleetEngine(state["data"], state["model"],
                           **kwargs).run(trace)
    return run


def _cases():
    cases = {}
    for mode in MODES:
        for cache in CACHES:
            cases[f"serve/{mode}/{cache}/no-deadline"] = _serve_case(
                mode, cache)
            cases[f"serve/{mode}/{cache}/shed"] = _serve_case(
                mode, cache, deadline=MODES[mode]["deadline"])
    # Degradation needs a queue: at 200 k req/s the wait at dispatch
    # straddles a 40 us deadline, so one run sheds, degrades and misses.
    for cache in CACHES:
        cases[f"serve/sampled/{cache}/degrade"] = _serve_case(
            "sampled", cache, deadline=4e-5, fallback=True, rate=2e5)
    cases["serve/precomputed/tiered-lfu/overloaded-q8"] = _serve_case(
        "precomputed", "tiered-lfu", max_queue=8, rate=2e6)

    cases["fleet/steady-spillover"] = _fleet_case()
    cases["fleet/sampled-2-replicas"] = _fleet_case(
        num_requests=160, rate=20000.0, mode="sampled", num_replicas=2,
        partition="hash")
    cases["fleet/autoscale"] = _fleet_case(
        autoscale=AutoscalePolicy(min_replicas=1, high_watermark=4.0,
                                  low_watermark=0.5, cooldown=0.0005))
    cases["fleet/crash-retry-timeout"] = _fleet_case(
        schedule=lambda span, _:
            f"crash@{0.3 * span:.6f}+{0.3 * span:.6f}:w0")
    cases["fleet/resilient-crash-storm"] = _fleet_case(
        schedule=lambda span, _: crash_storm(
            4, start=0.25 * span, down=0.35 * span, count=2,
            spacing=0.05 * span),
        replication=2, resilience=ResiliencePolicy(),
        recovery=lambda span, scratch: ReplicaRecovery(
            scratch, snapshot_interval=0.1 * span))
    cases["fleet/straggler-slowlink"] = _fleet_case(
        schedule=lambda span, _:
            f"straggler@{0.1 * span:.6f}+{0.4 * span:.6f}:w1:x6,"
            f"slowlink@{0.3 * span:.6f}+{0.5 * span:.6f}:x0.25",
        resilience=ResiliencePolicy(), replication=2)
    return cases


CASES = _cases()


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
_SUMMARY_FIELDS = ("completed", "rejected", "shed", "degraded",
                   "deadline_misses", "num_batches", "requeued", "spillovers", "failovers",
                   "dropped")
_RESILIENCE_FIELDS = ("suspicions", "hedges_launched", "hedges_won",
                      "breaker_trips", "backup_routed", "snapshots",
                      "recoveries")


def _fingerprint(name):
    """``(entry, combined)``: the case's golden entry, and the sha256
    of the rows and the report together (the older one-digest form)."""
    with tempfile.TemporaryDirectory(prefix="golden-serving-") as scratch:
        report = CASES[name](scratch)
    rows = sorted(
        (r.request.request_id, int(r.prediction), r.completion,
         r.batch_size, r.replica, bool(r.degraded))
        for r in report.responses)
    summary = report.to_dict()
    combined = hashlib.sha256(json.dumps(
        {"responses": rows, "report": summary},
        sort_keys=True).encode()).hexdigest()
    counts = {field: summary[field] for field in _SUMMARY_FIELDS
              if field in summary}
    counts.update({field: value for field, value in
                   sorted((summary.get("resilience") or {}).items())
                   if field in _RESILIENCE_FIELDS})
    if summary.get("scale_events"):
        counts["scale_events"] = len(summary["scale_events"])
    entry = {
        "responses_sha256": hashlib.sha256(
            json.dumps(rows).encode()).hexdigest(),
        "report": json.loads(json.dumps(summary)),
        "summary": " ".join(f"{field}={value}"
                            for field, value in counts.items())}
    return entry, combined


def _canonical(entry):
    return json.dumps(entry, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _canonical(_fingerprint(name)[0]) == _canonical(golden[name])


def regenerate():
    old = json.loads(GOLDEN_PATH.read_text())
    new = {}
    for name in sorted(CASES):
        entry, combined = _fingerprint(name)
        if "sha256" in old.get(name, {}):
            assert combined == old[name]["sha256"], (
                f"{name}: the run no longer reproduces its recorded "
                f"digest; re-encoding would hide what moved")
        new[name] = entry
    GOLDEN_PATH.write_text(json.dumps(new, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
