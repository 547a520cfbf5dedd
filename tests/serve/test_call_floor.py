"""The per-call floor of sampled serving, as a deterministic budget.

Sampled serving runs ~2 seeds per ``BatchExecutor.execute``; its
throughput is the fixed cost of one sampled batch.  Wall time on a
shared box is too noisy to gate, but the number of interpreter-level
calls one ``execute`` makes (``sys.setprofile`` ``call`` + ``c_call``
events) repeats exactly for a given python / numpy, so that is what is
pinned here.  ``tools/floor_profile.py`` owns the fixture and the
counter (this test is also its smoke); docs/architecture.md, "The
per-call floor", has the rules that keep the count down.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "floor_profile.py"

#: Calls per 2-seed ``execute``: 348 on python 3.11 + numpy 2.4 + scipy
#: 1.17, plus 23 calls of headroom for the numpy each CI python
#: installs.  Never above 550.  History: 410 (budget 433) until the
#: ``PERF`` timers, the counters no report read and the id map's
#: context manager left the per-block path.
BUDGET = 371


@pytest.fixture(scope="module")
def floor_profile():
    spec = importlib.util.spec_from_file_location("floor_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def engine(floor_profile):
    return floor_profile.build_engine(scale=0.3)[0]


@pytest.fixture(scope="module")
def two_seed_calls(floor_profile, engine):
    return floor_profile.calls_per_execute(engine, batch_size=2,
                                           batches=20)


def test_two_seed_execute_stays_under_the_call_budget(two_seed_calls):
    print(f"calls per 2-seed execute: {two_seed_calls}")
    assert two_seed_calls <= BUDGET <= 550, (
        f"{two_seed_calls} interpreter calls per 2-seed execute, budget "
        f"{BUDGET}: run tools/floor_profile.py for the map")


def test_a_training_sized_batch_runs_the_same_lines(floor_profile, engine,
                                                    two_seed_calls):
    """One path, no small-batch branch: 512 seeds make the call count
    of 2 (only the cache's overflow branches depend on the data)."""
    large = floor_profile.calls_per_execute(engine, batch_size=512,
                                            batches=3)
    assert abs(large - two_seed_calls) <= 0.1 * two_seed_calls, (
        two_seed_calls, large)
