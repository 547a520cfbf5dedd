"""A test-local count of the forward kernels' calls.

The library bills FLOPs, not calls (the benchmark of record counts
calls with its own probes), so a test that pins how many times a layer
dispatches a kernel wraps the three forwards itself, in every loaded
module that imported them by name (the test module included).
"""

import collections
import contextlib
import sys

import pytest

from repro.kernels import registry

KERNELS = ("gspmm", "gsddmm", "edge_softmax")


def _counting(original, name, calls):
    def spy(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    return spy


@contextlib.contextmanager
def kernel_calls():
    """A ``Counter`` of the forward-kernel calls the ``with`` body
    makes, keyed ``"gspmm"`` / ``"gsddmm"`` / ``"edge_softmax"``."""
    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in KERNELS:
            original = getattr(registry, f"{name}_forward")
            spy = _counting(original, name, calls)
            for module in list(sys.modules.values()):
                for alias, value in list(getattr(module, "__dict__",
                                                 {}).items()):
                    if value is original:
                        patch.setattr(module, alias, spy)
        yield calls
