"""Reusable scratch-array pool for the batch-preparation kernels.

The fused block-assembly path localizes global vertex ids through a
dense int64 lookup table sized to the largest id it has seen.  Allocating
(and ``-1``-filling) that table per block would erase the win, so a
:class:`Workspace` keeps one table alive across calls and the kernel
restores only the entries it touched — an O(touched) reset instead of an
O(num_vertices) refill.

The table's invariant between borrows is *all entries equal -1*; the
:meth:`Workspace.id_map` context manager enforces it even when the
kernel raises mid-way.
"""

from __future__ import annotations

import numpy as np

from .profiler import PERF

__all__ = ["Workspace", "get_workspace"]


class _IdMapBorrow:
    """What :meth:`Workspace.id_map` returns: the borrow as a class
    instead of a ``contextlib`` generator, whose helper / ``next``
    machinery made more interpreter calls per block than the borrow
    itself.  All the work happens in ``__enter__``, as the generator's
    did."""

    __slots__ = ("_workspace", "_capacity", "_pooled")

    def __init__(self, workspace, capacity):
        self._workspace = workspace
        self._capacity = capacity

    def __enter__(self):
        workspace = self._workspace
        self._pooled = not workspace._id_map_busy
        if not self._pooled:
            PERF.count("workspace_id_map_contended")
            return np.full(int(self._capacity), -1, dtype=np.int64)
        if self._capacity > len(workspace._id_map):
            workspace._grow_id_map(self._capacity)
        workspace._id_map_busy = True
        PERF.count("workspace_id_map_borrows")
        return workspace._id_map

    def __exit__(self, *_exc):
        if self._pooled:
            self._workspace._id_map_busy = False


class Workspace:
    """An arena of reusable scratch arrays for hot-path kernels."""

    def __init__(self):
        self._id_map = np.empty(0, dtype=np.int64)
        self._id_map_busy = False

    def _grow_id_map(self, capacity):
        # Geometric growth so repeated slightly-larger requests don't
        # reallocate every call.
        new_size = max(int(capacity), 2 * len(self._id_map), 1024)
        self._id_map = np.full(new_size, -1, dtype=np.int64)
        PERF.count("workspace_id_map_grows")

    def id_map(self, capacity):
        """Borrow the ``-1``-filled int64 lookup table, at least
        ``capacity`` entries long.

        The caller may write any entries; on exit the caller must have
        restored them to -1 (the usual pattern: assign positions, use,
        then re-assign -1 at the same indices).  Re-entrant borrows fall
        back to a fresh allocation so nested samplers stay correct.
        """
        return _IdMapBorrow(self, capacity)


#: Process-wide workspace shared by the sampling kernels.
_WORKSPACE = Workspace()


def get_workspace():
    """The process-wide :class:`Workspace`."""
    return _WORKSPACE
