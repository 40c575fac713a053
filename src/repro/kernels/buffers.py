"""Reusable scratch buffers for queue-pair construction.

The k-lane exchanges build one send buffer per rank per stage (and one
fleet-sized lane-pack buffer per dense exchange), every iteration —
thousands of short-lived allocations per run.
A :class:`BufferPool` recycles them: ``take(n)``
hands out a length-``n`` view of a pooled backing array (growing
geometrically), ``give(buf)`` returns the backing array once the
collective has copied the payload out.

The simulator's collectives always copy (``np.concatenate`` /
``np.empty``), so a send buffer never outlives its exchange; callers
must still only ``give`` back buffers they obtained from ``take`` and
stop using them afterwards.  Returning the same backing array twice is
detected and ignored (a double-give would otherwise let two later
``take`` calls alias the same memory).

Each rank's exchanges draw from that rank's own pool
(:meth:`repro.core.context.RankContext.scratch_pool`), the fused
fleet-wide passes from the fleet's
(:meth:`repro.core.fleet.Fleet.scratch_pool`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["BufferPool"]

#: Backing arrays retained per pool; beyond this, give() drops buffers.
_MAX_POOLED = 64


class BufferPool:
    """Pool of same-dtype scratch arrays handed out as exact-length views."""

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self._free: list[np.ndarray] = []
        self._free_ids: set[int] = set()
        self.hits = 0
        self.misses = 0

    def take(self, n: int) -> np.ndarray:
        """A writable length-``n`` array (contents uninitialized)."""
        n = int(n)
        best = -1
        for i, base in enumerate(self._free):
            if base.shape[0] >= n and (
                best < 0 or base.shape[0] < self._free[best].shape[0]
            ):
                best = i
        if best >= 0:
            self.hits += 1
            base = self._free.pop(best)
            self._free_ids.discard(id(base))
            return base[:n]
        self.misses += 1
        capacity = max(16, 1 << max(0, int(n) - 1).bit_length())
        return np.empty(capacity, dtype=self.dtype)[:n]

    def take2d(self, rows: int, cols: int) -> np.ndarray:
        """A writable C-contiguous ``(rows, cols)`` array from the pool.

        Backed by the same 1-D pooled arrays as :meth:`take` — a
        ``rows x cols`` lane buffer given back can later serve a plain
        1-D ``take`` of any length up to its capacity, and vice versa.
        """
        return self.take(int(rows) * int(cols)).reshape(int(rows), int(cols))

    def give(self, *buffers: np.ndarray) -> None:
        """Return buffers obtained from :meth:`take`/:meth:`take2d`.

        A backing array already sitting in the pool is skipped: two
        views of the same base given back twice (or in the same call)
        must not make the base available to two future ``take``
        calls, which would alias their payloads.  2-D views hand their
        (1-D) root backing array back, so the guard keys on the same
        identity regardless of how the view was shaped.
        """
        for buf in buffers:
            base = _root_base(buf)
            if (
                isinstance(base, np.ndarray)
                and base.dtype == self.dtype
                and base.ndim == 1
                and len(self._free) < _MAX_POOLED
                and id(base) not in self._free_ids
            ):
                self._free.append(base)
                self._free_ids.add(id(base))

    def clear(self) -> None:
        self._free.clear()
        self._free_ids.clear()


def _root_base(buf: np.ndarray):
    """Walk the view chain to the owning array.

    NumPy usually collapses ``.base`` chains to the owner, but a
    reshape of a slice view can keep an intermediate view in the
    chain — walking makes the double-give guard independent of how
    many view layers the caller stacked.
    """
    base = buf
    while isinstance(base, np.ndarray) and base.base is not None:
        base = base.base
    return base
