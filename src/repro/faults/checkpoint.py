"""Superstep checkpointing: snapshot, prune, restore.

A checkpoint captures everything a resumed run needs to be
*bit-identical* to a run that never crashed:

* every named state array of the run (``Engine.reset_timers`` frees
  the previous run's), once per vertex: a global vector in original
  vertex order (``Engine.gather``), ``(n,)`` or ``(n, k)`` for a lane
  state.  At a superstep boundary the R row cells and C column cells
  of a vertex agree (the integrity ledger checks it just before the
  save), so the vector is the whole state and no layout is kept,
* the exact :class:`~repro.comm.counters.CommCounters` state,
* the full :class:`~repro.comm.clocks.VirtualClocks` state including
  iteration marks and counter snapshots (so per-iteration traces
  reconstruct exactly across the crash), and
* the algorithm's loop state — scalars, lane vectors, vertex sets by
  original id — from the callable it hands each
  ``Engine.superstep_boundary``, called only when a checkpoint saves.

Nothing in a checkpoint depends on the grid: resume in place, a spare
and a regrid all restore through ``Engine.restore``, which writes each
vector into every rank's row and column windows.

Checkpoints live in memory: ``CheckpointManager.latest()`` feeds every
recovery driver.  If persistence is wanted later, it is an exporter
(``Checkpoint`` → ``np.savez``), not a hook mode.

The snapshot cost model is honest about scale: the members of a row
group share its row window, so each drains one of R consecutive slices
of it (:meth:`~repro.core.fleet.Fleet.row_shares`) and every vertex is
drained exactly once.  ``save`` charges each rank's clock with its
slice's bytes over ``checkpoint_bw`` (device → host at PCIe-ish
bandwidth), so checkpoint-interval tradeoffs show up in timing reports
the way they would on the real cluster.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..comm.grid import check_count, check_positive
from ..core.hooks import Boundary, BoundaryHook

__all__ = ["Checkpoint", "CheckpointManager"]


@dataclass
class Checkpoint:
    """One recoverable snapshot at a superstep boundary; grid-independent
    (see the module docstring), so it restores onto any layout."""

    superstep: int
    algo: str
    #: ``name -> (n,) or (n, k)`` global vector in original vertex order.
    state: dict[str, np.ndarray]
    counters: dict
    clocks: dict
    algo_state: dict[str, Any]

    @property
    def nbytes(self) -> int:
        """Total snapshotted state bytes (cost-model input)."""
        return int(sum(vec.nbytes for vec in self.state.values()))

    @property
    def cell_bytes(self) -> int:
        """Bytes of one vertex's cell of every state (a lane state's
        ``k`` values)."""
        return sum(
            vec.itemsize * int(np.prod(vec.shape[1:])) for vec in self.state.values()
        )


class CheckpointManager(BoundaryHook):
    """Owns the checkpoint series for one run.

    Attach with ``engine.attach_checkpoints(manager)``; it fires in the
    ``checkpoint`` boundary phase — after integrity verification, so
    every kept checkpoint is verified-good, and before any demote/grow
    decision, so recovery drains from the boundary it was decided at.

    Parameters
    ----------
    interval:
        Save every ``interval`` supersteps (1 = every boundary).
    keep:
        Retain at most this many checkpoints (oldest pruned first) —
        recovery only ever needs the latest, the second-newest guards
        against a crash *during* a save.  ``interval`` and ``keep``
        are integers >= 1: a float or a bool raises ``ValueError``.
    checkpoint_bw:
        Modeled snapshot bandwidth in bytes/s, charged per rank on
        every save (default 12 GB/s, PCIe 3.0 x16-ish).  ``None``
        disables cost charging (tests that compare against fault-free
        runs without checkpointing use this); any other value must be
        a finite positive real (0, a bool or NaN raises ``ValueError``).
    """

    def __init__(
        self,
        interval: int = 1,
        keep: int = 2,
        checkpoint_bw: Optional[float] = 12e9,
    ):
        self.interval = check_count(interval, "interval")
        self.keep = check_count(keep, "keep")
        if checkpoint_bw is not None:
            check_positive(checkpoint_bw, "checkpoint_bw")
        self.checkpoint_bw = checkpoint_bw
        self.checkpoints: list[Checkpoint] = []
        self.saves = 0

    slot = "checkpoints"
    phases = ("checkpoint",)

    def on_phase(self, phase: str, engine, boundary: Boundary) -> None:
        if boundary.state is not None:
            self.maybe_save(
                engine, boundary.superstep, boundary.algo, boundary.state
            )

    def on_reset(self, engine) -> None:
        # Stale checkpoints describe state the new run will overwrite.
        self.clear()

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------
    def due(self, superstep: int) -> bool:
        """Does ``superstep`` fall on the configured interval?"""
        return superstep % self.interval == 0

    def maybe_save(
        self, engine, superstep: int, algo: str, state: Callable[[], dict]
    ) -> Optional[Checkpoint]:
        """Save if ``superstep`` falls on the configured interval."""
        if not self.due(superstep):
            return None
        return self.save(engine, superstep, algo, state)

    def save(
        self, engine, superstep: int, algo: str, state: Callable[[], dict]
    ) -> Checkpoint:
        """Snapshot the engine at ``superstep`` (unconditionally);
        ``state()`` is the algorithm's loop state."""
        ckpt = Checkpoint(
            superstep=superstep,
            algo=algo,
            state={name: engine.gather(name) for name in engine.fleet.views[0]},
            counters={},
            clocks={},
            # deepcopy so later loop mutation can't reach into history;
            # loop state is small (scalars, lane vectors, vertex sets)
            algo_state=copy.deepcopy(state()),
        )
        # Charge the snapshot cost BEFORE capturing the clock state:
        # the checkpoint must embed its own cost, or a restored run
        # would be missing time the uninterrupted run was charged.
        # Each rank drains its share of its row window at checkpoint
        # bandwidth; the time lands in the recovery lane (resilience
        # overhead).
        if self.checkpoint_bw:
            start, stop = engine.fleet.row_shares()
            for rank, cells in enumerate((stop - start).tolist()):
                engine.clocks.add_stall(
                    rank, cells * ckpt.cell_bytes / self.checkpoint_bw
                )
        ckpt.counters = engine.counters.state_dict()
        ckpt.clocks = engine.clocks.state_dict()
        self.checkpoints.append(ckpt)
        self.saves += 1
        del self.checkpoints[: -self.keep]
        return ckpt

    def adopt(self, ckpt: Checkpoint) -> None:
        """Replace the series with an externally produced checkpoint.

        Elastic recovery charges a move into the latest checkpoint's
        clocks and hands it back here; older same-run checkpoints carry
        clocks of a grid that no longer exists, so the series resets
        to exactly this one.
        """
        self.checkpoints = [ckpt]

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def clear(self) -> None:
        """Drop every checkpoint and reset the save count."""
        self.checkpoints.clear()
        self.saves = 0
