"""Reusable scratch-array pool for the batch-preparation kernels.

The fused block-assembly path localizes global vertex ids through a
dense int64 lookup table sized to the largest id it has seen.  Allocating
(and ``-1``-filling) that table per block would erase the win, so a
:class:`Workspace` keeps one table alive across calls and the kernel
restores only the entries it touched — an O(touched) reset instead of an
O(num_vertices) refill.

The table's invariant between borrows is *all entries equal -1*.  A
borrow is two plain calls, :meth:`Workspace.borrow` and
:meth:`Workspace.release`, not a context manager: a sampled block
borrows once per layer, and the manager's object and ``__enter__`` /
``__exit__`` frames cost more calls than the borrow.  The caller's
``try`` / ``finally`` restores the entries it wrote and releases.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace", "get_workspace"]


class Workspace:
    """An arena of reusable scratch arrays for hot-path kernels."""

    def __init__(self):
        self._id_map = np.empty(0, dtype=np.int64)
        self._id_map_busy = False

    def borrow(self, capacity):
        """The ``-1``-filled int64 lookup table, at least ``capacity``
        entries long.

        The caller may write any entries; before :meth:`release` it must
        have restored them to -1 (the usual pattern: assign positions,
        use, then re-assign -1 at the same indices, in a ``finally``).
        A borrow while the pooled table is lent out gets a fresh table,
        so nested samplers stay correct.
        """
        if self._id_map_busy:
            return np.full(capacity, -1, dtype=np.int64)
        if capacity > len(self._id_map):
            # Geometric growth so repeated slightly-larger requests
            # don't reallocate every call.
            self._id_map = np.full(
                max(capacity, 2 * len(self._id_map), 1024), -1,
                dtype=np.int64)
        self._id_map_busy = True
        return self._id_map

    def release(self, table):
        """Hand back a table :meth:`borrow` returned (a fresh one from a
        nested borrow is simply dropped)."""
        if table is self._id_map:
            self._id_map_busy = False


#: Process-wide workspace shared by the sampling kernels.
_WORKSPACE = Workspace()


def get_workspace():
    """The process-wide :class:`Workspace`."""
    return _WORKSPACE
