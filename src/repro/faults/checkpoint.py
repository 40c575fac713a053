"""Superstep checkpointing: snapshot, prune, restore.

A checkpoint captures everything a resumed run needs to be
*bit-identical* to a run that never crashed:

* every named per-rank state array (each rank's views of the fleet's
  stacked state, ``Fleet.views``: the run's own, since
  ``Engine.reset_timers`` frees the previous run's),
* the exact :class:`~repro.comm.counters.CommCounters` state,
* the full :class:`~repro.comm.clocks.VirtualClocks` state including
  iteration marks and counter snapshots (so per-iteration traces
  reconstruct exactly across the crash), and
* the algorithm's loop state — scalars, lane vectors, vertex sets by
  original id — from the callable it hands each
  ``Engine.superstep_boundary``, called only when a checkpoint saves;
  it never depends on the grid, so every resume decodes it alike.

Checkpoints live in memory: ``CheckpointManager.latest()`` feeds every
recovery driver.  If persistence is wanted later, it is an exporter
(``Checkpoint`` → ``np.savez``), not a hook mode.

The snapshot cost model is honest about scale: ``save`` charges every
rank's clock with ``bytes / checkpoint_bw`` virtual seconds (device →
host snapshot at PCIe-ish bandwidth), so checkpoint-interval tradeoffs
show up in timing reports the way they would on the real cluster.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..core.hooks import Boundary, BoundaryHook

__all__ = ["Checkpoint", "CheckpointManager"]


@dataclass
class Checkpoint:
    """One recoverable snapshot at a superstep boundary.

    The partition-layout fields (``grid``, ``perm``, ``localmaps``)
    record the exact 2D layout the per-rank ``states`` were captured
    under — elastic recovery migrates a checkpoint onto a different
    surviving grid using *the checkpoint's own* layout, which may
    differ from the engine's current one after a previous regrid.
    ``algo_state`` needs no layout: it is grid-independent and crosses
    a regrid as it is.
    """

    superstep: int
    algo: str
    states: list[dict[str, np.ndarray]]
    counters: dict
    clocks: dict
    algo_state: dict[str, Any]
    #: ``(R, C)`` of the grid the states were captured on.
    grid: tuple[int, int]
    #: Original-GID -> relabeled-GID permutation of that layout.
    perm: np.ndarray
    #: Per-rank :class:`~repro.graph.localmap.LocalMap` of that layout.
    localmaps: list

    @property
    def nbytes(self) -> int:
        """Total snapshotted state-array bytes (cost-model input)."""
        return int(
            sum(a.nbytes for per_rank in self.states for a in per_rank.values())
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
        against a crash *during* a save.
    checkpoint_bw:
        Modeled snapshot bandwidth in bytes/s, charged per rank on
        every save (default 12 GB/s, PCIe 3.0 x16-ish).  ``None``
        disables cost charging (tests that compare against fault-free
        runs without checkpointing use this).
    """

    def __init__(
        self,
        interval: int = 1,
        keep: int = 2,
        checkpoint_bw: Optional[float] = 12e9,
    ):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.interval = interval
        self.keep = keep
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
        states = [
            {name: arr.copy() for name, arr in views.items()}
            for views in engine.fleet.views
        ]
        # Charge the snapshot cost BEFORE capturing the clock state:
        # the checkpoint must embed its own cost, or a restored run
        # would be missing time the uninterrupted run was charged.
        # Each rank drains its own state at checkpoint bandwidth; the
        # time lands in the recovery lane (resilience overhead).
        if self.checkpoint_bw:
            for rank, per_rank in enumerate(states):
                nbytes = sum(a.nbytes for a in per_rank.values())
                engine.clocks.add_stall(rank, nbytes / self.checkpoint_bw)
        part = engine.partition
        ckpt = Checkpoint(
            superstep=superstep,
            algo=algo,
            states=states,
            counters=engine.counters.state_dict(),
            clocks=engine.clocks.state_dict(),
            # deepcopy so later loop mutation can't reach into history;
            # loop state is small (scalars, lane vectors, vertex sets)
            algo_state=copy.deepcopy(state()),
            grid=(engine.grid.R, engine.grid.C),
            perm=part.perm.copy(),
            localmaps=[blk.localmap for blk in part.blocks],
        )
        self.checkpoints.append(ckpt)
        self.saves += 1
        del self.checkpoints[: -self.keep]
        return ckpt

    def adopt(self, ckpt: Checkpoint) -> None:
        """Replace the series with an externally produced checkpoint.

        Elastic recovery migrates the latest checkpoint onto a new
        grid and hands it back here; older same-run checkpoints
        describe a layout that no longer exists, so the series resets
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
