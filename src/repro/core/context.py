"""Per-rank execution context.

A :class:`RankContext` bundles everything one simulated GPU rank owns:
its graph block and a read-only view of its named state arrays.  State
is allocated for every rank at once through ``Engine.alloc``, which
charges every array against device memory (the engine's
:class:`~repro.cluster.device.DeviceLedger`, one column per rank) —
which is how the simulator reproduces the paper's out-of-memory
results at full-scale footprints.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from ..graph.partition.twod import RankBlock
from ..queueing.frontier import expand_block

__all__ = ["RankContext"]


class RankContext:
    """One rank's local world.

    State arrays are the rank's ``N_T``-long slices of the ``fleet``'s
    rank-stacked buffers — see :mod:`repro.core.fleet`.  They belong to
    the current run: ``Engine.reset_timers`` takes them all away.
    """

    def __init__(self, block: RankBlock, fleet):
        self.block = block
        self.fleet = fleet
        # identity / geometry shortcuts
        self.rank: int = block.rank
        self.n_total: int = block.n_total
        self.localmap = block.localmap
        self.row_slice: slice = block.localmap.row_slice
        self.col_slice: slice = block.localmap.col_slice
        #: The rank's state arrays by name, read-only: its slices of the
        #: fleet's stacked buffers (``Engine.alloc`` / ``Engine.free``).
        self.arrays: Mapping[str, np.ndarray] = MappingProxyType(
            fleet.views[self.rank]
        )
        self._local_degrees: Optional[np.ndarray] = None

    def local_degrees(self) -> np.ndarray:
        """Local degree of each row vertex (cached)."""
        if self._local_degrees is None:
            self._local_degrees = self.block.local_row_degrees()
        return self._local_degrees

    # ------------------------------------------------------------------
    # state arrays
    # ------------------------------------------------------------------
    def get(self, name: str) -> np.ndarray:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(
                f"rank {self.rank} has no state array {name!r}; "
                f"allocated: {sorted(self.arrays)}"
            ) from None

    # ------------------------------------------------------------------
    # graph access
    # ------------------------------------------------------------------
    def row_lids(self) -> np.ndarray:
        return self.block.row_lids()

    def col_lids(self) -> np.ndarray:
        return self.block.col_lids()

    def expand(self, row_lids: np.ndarray, degrees: Optional[np.ndarray] = None):
        """Expand row vertices into their local edges (an
        :class:`~repro.queueing.frontier.Expansion`); ``degrees`` are
        their :meth:`local_degrees`, if the caller has them."""
        return expand_block(self.block, row_lids, degrees)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RankContext(rank={self.rank}, N_T={self.n_total}, "
            f"edges={self.block.n_local_edges})"
        )
