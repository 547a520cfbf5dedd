"""The per-request floor of the fleet event loop, as a deterministic
budget.

``fleet-steady`` exists to measure the loop, router, batcher and cache
lookup per request, and those are python frames, not arithmetic: wall
time on a shared box is too noisy to gate, but the interpreter-level
calls one ``FleetEngine.run`` makes per request (``sys.setprofile``
``call`` + ``c_call`` events, report assembly included) repeat exactly
and do not depend on the trace length.  ``tools/floor_profile.py
--fleet`` owns the fixtures and the counter (this test is also its
smoke); docs/architecture.md, "The per-request floor of the fleet", has
the map of today's calls.  A fleet-chaos run's loop is also held to
the GC-tracked objects it leaves alive: a container kept per request
costs a collection every ~700 requests.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "floor_profile.py"

#: Calls per request: 90.5 when the loop polled every node every
#: iteration and observed through ``StageProfiler``; 19.3 while a
#: request went through ``ShardMap.owner``, ``queue_depth``,
#: ``accepting`` and ``ReplicaServer.submit`` on its way to the queue
#: and a batch was taken one ``popleft`` a request; 14.3 while each
#: fetch split its cold rows through ``ShardMap.split_local_remote``
#: and built a ``TierBill``; 13.0 while ``dispatch`` built one
#: ``InferenceResponse`` per answer (a ``tuple.__new__`` call each) and
#: the run kept them in a list; 12.0 while the node's ``submit``
#: forwarded to its ``MicroBatcher``'s and appended every admission's
#: queue depth to a list; 10.2 now that the node is its batcher, whose
#: ``submit`` is the one admission frame and whose depth statistics are
#: integers settled when the queue shrinks.  The budget keeps 12.7
#: calls of headroom over 10.2.
STEADY_BUDGET = 22.9
#: The same under the crash storm with every resilience mechanism on:
#: 164.9 while the loop polled, 76.9 while the router polled every
#: replica's breaker per request and every response went through the
#: heap on its own, 43.5 while each snapshot event committed every live
#: replica on its own, 39.3 while admission went through the forwarding
#: frames above, 32.5 once a snapshot round was one commit, the router
#: asked only the open breakers it tracks — none at all while none is
#: open — and admission was one thin path, 31.6 while every answer was
#: an ``InferenceResponse`` appended on its own, 29.8 once a hedge
#: race's winners went into the ledger as a row, 27.9 while admission
#: and a hedge twin's cancel went through the node's wrappers, not the
#: batcher's own frames, and 27.5 now that hedge timers wait on the
#: run's hedge lane, where only the earliest unanswered one is an event
#: (1 742 ``hedge`` events per run → 130 ``hedges`` events: −2.3), and
#: the hedge delay's quantile reads two heaps over the answer-order
#: latencies instead of a list kept sorted with ``insort`` (+1.9: a
#: ``heappush`` beside each ``append`` and a few per read, in place of
#: one ``insort`` whose memmove the count cannot see).  It is 29.7
#: now that a request's fate is an int in a dict, not an entry in a
#: ``done`` set or a ``lost`` dict, and the lane is a FIFO: each fate
#: read is a counted ``dict.get`` where ``rid in done`` was an
#: uncounted operator (+2.2), though the run got ~7 % faster
#: (CHANGES.md: "A hedged run keeps no container per request").  The
#: budget kept ``STEADY_BUDGET``'s headroom at 27.5.
CHAOS_BUDGET = 40.2


@pytest.fixture(scope="module")
def floor_profile():
    spec = importlib.util.spec_from_file_location("floor_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fleet_steady_stays_under_the_call_budget(floor_profile):
    calls = floor_profile.calls_per_request(
        *floor_profile.build_fleet(scale=0.3))
    print(f"calls per request, fleet-steady: {calls:.1f}")
    assert calls <= STEADY_BUDGET, (
        f"{calls:.1f} interpreter calls per request, budget "
        f"{STEADY_BUDGET}: run tools/floor_profile.py --fleet for the map")


def test_fleet_chaos_stays_under_the_call_budget(floor_profile, tmp_path):
    calls = floor_profile.calls_per_request(
        *floor_profile.build_fleet(scale=0.3, chaos_dir=tmp_path))
    print(f"calls per request, fleet-chaos: {calls:.1f}")
    assert calls <= CHAOS_BUDGET, (
        f"{calls:.1f} interpreter calls per request, budget "
        f"{CHAOS_BUDGET}: run tools/floor_profile.py --fleet for the map")


#: GC-tracked objects per request a ``fleet-chaos`` run's event loop may
#: leave alive (``floor_profile.loop_allocations``): 1.12 while a hedged
#: run kept a list of replica ids per request (a gen-0 collection every
#: ~630 requests, 7–9 in a record run), 0.19 once it kept an int per
#: request in a dict instead (no collection in a record run).
CHAOS_OBJECTS_PER_REQUEST = 0.25


def test_fleet_chaos_keeps_no_container_per_request(floor_profile,
                                                    tmp_path):
    objects = floor_profile.loop_allocations(
        *floor_profile.build_fleet(scale=0.3, chaos_dir=tmp_path))
    print(f"objects per request left alive, fleet-chaos: {objects:.3f}")
    assert objects < CHAOS_OBJECTS_PER_REQUEST, (
        f"a fleet-chaos run's loop leaves {objects:.3f} GC-tracked "
        f"objects per request alive, budget {CHAOS_OBJECTS_PER_REQUEST}:"
        f" something is kept per request")


def test_layer_table_keeps_a_layer_it_cannot_find(floor_profile):
    """A renamed function must not drop its row from the map: the
    layer is printed as absent, with 0 calls."""
    class Stats:
        stats = {("/x/repro/fleet/router.py", 1, "route"):
                 (5, 5, 0.1, 0.2, {})}

    rows = floor_profile.layer_table(
        Stats(), (("route", "fleet/router.py", "route"),
                  ("gone", "fleet/router.py", "renamed")))
    assert rows == [("route", 5, 0.2, 0.1), ("gone", 0, 0.0, 0.0)]
