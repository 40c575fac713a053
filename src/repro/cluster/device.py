"""Virtual GPU devices with memory accounting.

The paper reports out-of-memory failures as first-class results (Gluon
could not load GSH or ClueWeb; CuGraph could not fit RMAT28 on zepy).
To reproduce those, every per-rank allocation in the simulator is
charged against the real device capacity, in one
:class:`DeviceLedger` table of every rank's allocations.
The tracked quantities are the *modeled* full-scale sizes, so the
feasibility answers hold even when the simulation itself runs on a
scaled-down stand-in graph.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .config import GPUSpec

__all__ = ["INDEX_BYTES", "DeviceLedger", "DeviceMemoryError"]

#: Bytes of one modeled adjacency entry (an ``int64`` index): what a
#: device is charged per stored edge, whatever the host's index dtype.
INDEX_BYTES = 8


class DeviceMemoryError(MemoryError):
    """Raised when a rank's modeled allocations exceed device memory."""

    def __init__(self, ledger: "DeviceLedger", rank: int, requested: int):
        self.rank = rank
        self.requested = int(requested)
        super().__init__(
            f"rank {rank} ({ledger.spec.name}): allocation of "
            f"{requested} bytes exceeds capacity "
            f"({ledger.allocated[rank]}/{ledger.spec.memory_bytes} in use)"
        )


class DeviceLedger:
    """Every rank's memory ledger as one ``(labels x ranks)`` table.

    Allocations are named so over-subscription reports can say *what*
    did not fit, matching how the paper discusses allocation failures.
    A charge or release is one table operation for every rank it
    names.

    Parameters
    ----------
    n_ranks:
        Columns of the table.
    spec:
        GPU model (capacity comes from here).
    scale_factor:
        Multiplier applied to every charge, used to account full-scale
        dataset footprints while simulating on a scaled stand-in.
    enforce:
        When False, over-subscription is recorded but not raised
        (useful for "would this fit?" queries).
    """

    def __init__(
        self, n_ranks: int, spec: GPUSpec, scale_factor: float = 1.0, enforce: bool = True
    ):
        self.spec = spec
        self.scale_factor = scale_factor
        self.enforce = enforce
        #: ``label -> row`` of :attr:`bytes`; a released label keeps its row
        self.rows: dict[str, int] = {}
        self.bytes = np.zeros((0, n_ranks), dtype=np.int64)
        #: which cells hold an entry (a charge of 0 bytes is an entry)
        self.held = np.zeros((0, n_ranks), dtype=bool)
        self.allocated = np.zeros(n_ranks, dtype=np.int64)
        self.peak = np.zeros(n_ranks, dtype=np.int64)

    def charge(self, entries: Mapping[str, object], columns=slice(None)) -> None:
        """Charge ``{label: nbytes}`` on ``columns`` (default every rank),
        label by label: ``nbytes`` is pre-scale, one per rank of
        ``columns`` or one for all of them.  Nothing is charged if a
        rank would go over capacity; the :class:`DeviceMemoryError`
        names the first rank that would, as charging rank after rank,
        each label in turn, would."""
        width = self.allocated[columns].shape
        scaled = [
            np.broadcast_to((np.asarray(n) * self.scale_factor).astype(np.int64), width)
            for n in entries.values()
        ]
        for label, step in zip(entries, scaled):
            if (step < 0).any():
                raise ValueError(f"negative allocation for {label!r}: {step.min()}")
        running = self.allocated[columns] + np.cumsum(scaled, axis=0)
        if self.enforce:
            over = running > self.spec.memory_bytes
            ranks = np.flatnonzero(over.any(axis=0))
            if ranks.size:
                column = np.arange(self.allocated.size)[columns][ranks[0]]
                step = int(np.argmax(over[:, ranks[0]]))
                raise DeviceMemoryError(self, int(column), int(scaled[step][ranks[0]]))
        for label, step in zip(entries, scaled):
            row = self._row(label)
            self.bytes[row, columns] += step
            self.held[row, columns] = True
        self.allocated[columns] = running[-1]
        np.maximum(self.peak, self.allocated, out=self.peak)

    def release(self, label: str, columns=slice(None)) -> None:
        """Release everything charged under ``label`` on ``columns``
        (default every rank); an unknown label is a no-op."""
        row = self.rows.get(label)
        if row is not None:
            self.allocated[columns] -= self.bytes[row, columns]
            self.bytes[row, columns] = 0
            self.held[row, columns] = False

    def _row(self, label: str) -> int:
        row = self.rows.setdefault(label, len(self.rows))
        if row == len(self.bytes):
            self.bytes = np.vstack([self.bytes, np.zeros_like(self.allocated)])
            self.held = np.vstack([self.held, np.zeros(self.allocated.shape, bool)])
        return row
