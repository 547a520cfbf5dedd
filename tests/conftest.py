"""Suite-wide fixtures.

The entire test suite runs with the runtime sanitizers armed
(``FLAGS.sanitize = True``): every NaN/Inf scan, CSR structural check,
and shape/dtype contract is live for every test, so a kernel change
that corrupts an array fails loudly here before it can skew a
benchmark number.  Tests that specifically exercise the off behaviour
(zero-cost guarantees) drop the flag locally with
``perf_overrides(sanitize=False)``.

A run that selects nothing on the command line (the tier-1 command)
also enforces ``tests/required.txt``: see ``tests/_required.py``.
"""

import pytest

from repro.perf import FLAGS

from . import _required


def pytest_configure(config):
    _required.register(config)


@pytest.fixture(scope="session", autouse=True)
def _arm_sanitizers():
    saved = FLAGS.sanitize
    FLAGS.sanitize = True
    yield
    FLAGS.sanitize = saved
