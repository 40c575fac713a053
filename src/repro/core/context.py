"""Per-rank execution context.

A :class:`RankContext` bundles everything one simulated GPU rank owns:
its graph block, its virtual device (memory ledger), and its named
state arrays.  Algorithms allocate state through the context so every
array is charged against device memory — which is how the simulator
reproduces the paper's out-of-memory results at full-scale footprints.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.device import VirtualGPU
from ..graph.partition.twod import RankBlock
from ..kernels.buffers import BufferPool
from ..queueing.frontier import expand_block
from .fleet import StateArrays

__all__ = ["RankContext"]


class RankContext:
    """One rank's local world.

    State arrays of the standard ``N_T`` length are slices of the
    ``fleet``'s rank-stacked buffers — see :mod:`repro.core.fleet`.

    ``arrays`` holds every registered state array, whichever run
    registered it; :attr:`run_arrays` is the subset the *current run*
    registered (see :meth:`begin_run`) — what the boundary hooks
    verify, snapshot and inject into.
    """

    def __init__(self, block: RankBlock, device: VirtualGPU, fleet):
        self.block = block
        self.device = device
        self.fleet = fleet
        # identity / geometry shortcuts
        self.rank: int = block.rank
        self.n_total: int = block.n_total
        self.localmap = block.localmap
        self.row_slice: slice = block.localmap.row_slice
        self.col_slice: slice = block.localmap.col_slice
        self.arrays: dict[str, np.ndarray] = StateArrays(fleet)
        # What the previous run left registered: name -> the array it
        # left (see begin_run / run_arrays).
        self._left_over: dict[str, np.ndarray] = {}
        self._local_degrees: Optional[np.ndarray] = None
        self._scratch_pools: dict[np.dtype, BufferPool] = {}
        # Charge the static graph structure, as the paper's loader does
        # when moving the CSR to the GPU.
        device.charge("graph.indptr", block.indptr.nbytes)
        device.charge("graph.indices", block.indices.nbytes)
        if block.weights is not None:
            device.charge("graph.weights", block.weights.nbytes)

    def local_degrees(self) -> np.ndarray:
        """Local degree of each row vertex (cached)."""
        if self._local_degrees is None:
            self._local_degrees = self.block.local_row_degrees()
        return self._local_degrees

    def scratch_pool(self, dtype) -> BufferPool:
        """This rank's :class:`BufferPool` for ``dtype`` scratch buffers
        (a rank's closure takes only from its own pool, as it touches
        only its own state)."""
        dt = np.dtype(dtype)
        pool = self._scratch_pools.get(dt)
        if pool is None:
            pool = self._scratch_pools[dt] = BufferPool(dt)
        return pool

    # ------------------------------------------------------------------
    # state arrays
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """A new run starts (``Engine.reset_timers``): everything
        registered now is the previous run's.  Left-over arrays stay
        registered, readable and charged to the device; they leave
        :attr:`run_arrays` until the run registers the name again."""
        self._left_over = dict(self.arrays)

    @property
    def run_arrays(self) -> dict[str, np.ndarray]:
        """The state arrays the current run registered, by name: every
        entry of ``arrays`` except those still holding the array the
        previous run left there.  :meth:`alloc`, :meth:`adopt`,
        :meth:`free` and a direct ``arrays[name] = ...`` all make the
        name the run's."""
        return {
            name: arr
            for name, arr in self.arrays.items()
            if self._left_over.get(name) is not arr
        }

    def alloc(
        self,
        name: str,
        dtype=np.float64,
        fill=0,
        length: Optional[int] = None,
        width: Optional[int] = None,
    ) -> np.ndarray:
        """Allocate (or re-initialize) a named state array.

        By default the array spans the rank's full LID space
        ``[0, N_T)``, the layout all communication patterns assume.
        ``width=k`` allocates a C-contiguous ``(length, k)`` lane array
        instead — the layout the batched multi-source algorithms use,
        where each column is one query lane.
        """
        n = self.n_total if length is None else int(length)
        shape: tuple[int, ...] = (n,) if width is None else (n, int(width))
        if name in self.arrays and self.arrays[name].shape == shape and (
            self.arrays[name].dtype == np.dtype(dtype)
        ):
            arr = self.arrays[name]
            arr[...] = fill
            self._left_over.pop(name, None)
            return arr
        if name in self.arrays:
            self.free(name)
        if n == self.n_total:
            arr = self.fleet.alloc(self.rank, name, dtype, width)
            arr[...] = fill
        else:
            arr = np.full(shape, fill, dtype=dtype)
        self.device.charge(f"state.{name}", arr.nbytes)
        self.arrays[name] = arr
        return arr

    def adopt(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Register an externally-owned array as a named state.

        Used for scratch (e.g. from :meth:`scratch_pool`) that must be
        visible to the communication patterns under a state name for a
        few supersteps.  The array is charged against the device ledger
        like any allocation; call :meth:`free` to unregister it (the
        memory itself stays with the caller, who returns it to its
        pool).  An adopted array is not a slice of the fleet's stacked
        buffer: a rank-fused pass over this state (``sparse_push``,
        ``dense_pull``, ``bfs``) re-stacks it into one, with a warning,
        and the caller's array is detached from then on.
        """
        if name in self.arrays:
            self.free(name)
        self.device.charge(f"state.{name}", arr.nbytes)
        self.arrays[name] = arr
        return arr

    def get(self, name: str) -> np.ndarray:
        try:
            return self.arrays[name]
        except KeyError:
            raise KeyError(
                f"rank {self.rank} has no state array {name!r}; "
                f"allocated: {sorted(self.arrays)}"
            ) from None

    def free(self, name: str) -> None:
        arr = self.arrays.pop(name, None)
        self._left_over.pop(name, None)
        if arr is not None:
            self.device.release(f"state.{name}")
            self.fleet.release(self.rank, name, arr)

    def has(self, name: str) -> bool:
        return name in self.arrays

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
