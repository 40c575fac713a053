"""Elastic degraded-mode recovery: regrid onto the surviving GPUs.

PR 4's recovery machinery resumes a crashed run *on the same grid* —
the crashed rank is modeled as replaced.  At the paper's scale
(hundreds of GPUs, multi-hour WDC12 runs) a replacement is not always
available: the honest degraded mode is to **continue the job on fewer
ranks**.  This module implements that path:

1. the latest :class:`~repro.faults.checkpoint.Checkpoint` is opened
   under *its own* recorded 2D layout (grid, permutation, local maps)
   and every per-rank state array is gathered back into a global
   original-GID-order vector — the checkpoint-time analogue of
   :meth:`TwoDPartition.gather_row_state`;
2. a pluggable :class:`GridPolicy` chooses the surviving grid
   ``R'×C'`` from :func:`~repro.comm.grid.factor_pairs` over the
   remaining ranks (or keeps the grid, consuming a hot spare);
3. :meth:`Engine.rebuild_on_grid` re-partitions the graph and carries
   counters, clocks, the fault injector, and the checkpoint manager
   onto the new grid;
4. the global vectors are re-scattered, the algorithm loop state is
   copied as it is (it never names a rank, LID or relabeled GID:
   vertex sets are saved by original id and decoded onto whatever grid
   resumes them), and the run resumes from the checkpointed superstep
   via the ordinary ``resume=True`` path.

The migration is charged to a dedicated ``regrid`` clock lane
(:meth:`VirtualClocks.charge_regrid`): one checkpoint-sized AllGatherv
to reassemble global state, one edge-list movement to re-partition,
and one scatter of the new per-rank windows, all at ``regrid_bw``.

Exactness: every monotone (min/max-reducing) algorithm — bfs, cc,
sssp, label propagation, pointer jumping, and min/max vertex programs
— finishes with values **bit-identical** to the fault-free run, on any
surviving grid, because min/max reductions are insensitive to the
operand grouping a new grid induces.  PageRank's floating-point *sum*
reductions are grouping-sensitive: values are bit-identical on the
spare-pool (same-grid) path and agree to within ~1 ulp after a shrink
(see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Optional, Union

import numpy as np

from ..comm.clocks import VirtualClocks
from ..comm.grid import Grid2D, squarest_grid
from .checkpoint import Checkpoint
from .injector import RankFailure, SpareArrival
from .plan import FaultEvent

__all__ = [
    "GridPolicy",
    "PreferSquare",
    "SparePool",
    "resolve_policy",
    "ElasticUnrecoverable",
    "Recovery",
    "ElasticRecovery",
    "gather_checkpoint_state",
    "migrate_checkpoint",
    "drive_elastic",
]


# ----------------------------------------------------------------------
# grid policies
# ----------------------------------------------------------------------
class GridPolicy:
    """Chooses the post-failure grid.

    ``choose`` receives the failed engine's grid and the number of
    surviving ranks; it returns the new :class:`Grid2D`, or ``None``
    to keep the current grid (a hot spare replaces the dead rank).
    """

    name = "grid-policy"

    def choose(self, grid: Grid2D, survivors: int) -> Optional[Grid2D]:
        raise NotImplementedError


class PreferSquare(GridPolicy):
    """Use every survivor on the most square factor pair (the paper's
    default layout preference — square grids minimize the larger of
    the two group sizes)."""

    name = "prefer-square"

    def choose(self, grid: Grid2D, survivors: int) -> Optional[Grid2D]:
        return squarest_grid(survivors)


class SparePool(GridPolicy):
    """Hold ``spares`` hot standby GPUs: while the pool lasts the grid
    is unchanged (the spare adopts the dead rank's checkpointed state);
    once exhausted, defer to ``fallback`` (default
    :class:`PreferSquare`)."""

    name = "spare-pool"

    def __init__(self, spares: int = 1, fallback: Optional[GridPolicy] = None):
        if spares < 0:
            raise ValueError(f"spares must be >= 0, got {spares}")
        self.spares = spares
        self.fallback = fallback if fallback is not None else PreferSquare()

    def choose(self, grid: Grid2D, survivors: int) -> Optional[Grid2D]:
        if self.spares > 0:
            self.spares -= 1
            return None
        return self.fallback.choose(grid, survivors)


def resolve_policy(spec: Union[GridPolicy, str]) -> GridPolicy:
    """Resolve a policy spec: a :class:`GridPolicy` instance, or one of
    ``"prefer-square"``, ``"spare-pool"`` /
    ``"spare-pool:N"`` (a pool of N spares)."""
    if isinstance(spec, GridPolicy):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"grid policy must be a GridPolicy or a string spec, "
            f"got {type(spec).__name__}: {spec!r}"
        )
    name, _, arg = spec.partition(":")
    if name == "prefer-square" and not arg:
        return PreferSquare()
    if name == "spare-pool":
        if not arg:
            return SparePool()
        try:
            spares = int(arg)
        except ValueError:
            raise ValueError(
                f"spare-pool size must be an integer, got {spec!r}"
            ) from None
        return SparePool(spares=spares)
    raise ValueError(
        f"unknown grid policy {spec!r}; choose from 'prefer-square', "
        f"'spare-pool', 'spare-pool:N'"
    )


class ElasticUnrecoverable(RuntimeError):
    """Elastic recovery cannot continue the run (no checkpoint, no
    survivors, or the regrid budget is exhausted)."""


# ----------------------------------------------------------------------
# state migration
# ----------------------------------------------------------------------
def gather_checkpoint_state(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    """Reconstruct every named state as a global original-order vector.

    The checkpoint-time analogue of
    :meth:`~repro.graph.partition.twod.TwoDPartition.gather_row_state`:
    read the row window of the first rank of each row group (row
    groups are consistent at a superstep boundary) and undo the GID
    relabeling via the recorded permutation.
    """
    grid = Grid2D(R=ckpt.grid[0], C=ckpt.grid[1])
    out: dict[str, np.ndarray] = {}
    # every rank holds every state (the arena allocates them together)
    for name in sorted(ckpt.states[0]):
        first = ckpt.states[0][name]
        # trailing dims (batched (n, k) lane states) ride along
        rel = np.zeros(ckpt.perm.shape + first.shape[1:], dtype=first.dtype)
        for id_r in range(grid.C):
            rank = grid.rank_of(id_r, 0)
            lm = ckpt.localmaps[rank]
            rel[lm.row_start : lm.row_stop] = ckpt.states[rank][name][lm.row_slice]
        out[name] = rel[ckpt.perm]
    return out


def migrate_checkpoint(
    ckpt: Checkpoint, new_engine, regrid_bw: float = 12e9
) -> tuple[Checkpoint, float]:
    """Re-express a checkpoint on ``new_engine``'s grid.

    Returns the migrated checkpoint and the charged migration time.
    The cost model is one checkpoint-sized AllGatherv (global state
    reassembly), one edge-list movement (re-partition), and one
    scatter of the new per-rank windows, all at ``regrid_bw`` bytes/s.
    The time is charged into the *migrated checkpoint's* clock state
    (synchronizing all new ranks), so the subsequent
    ``Engine.restore`` keeps it — exactly how checkpoint drains embed
    their own cost.  Communication counters are deliberately left
    untouched: like retries, migration traffic describes the weather,
    not the algorithm.
    """
    part = new_engine.partition
    if part.n_vertices != ckpt.perm.shape[0]:
        raise ValueError(
            f"cannot migrate a checkpoint of {ckpt.perm.shape[0]} vertices "
            f"onto a partition of {part.n_vertices}"
        )
    global_state = gather_checkpoint_state(ckpt)

    new_states: list[dict[str, np.ndarray]] = [
        {
            name: part.scatter_global(vec, rank)
            for name, vec in global_state.items()
        }
        for rank in range(new_engine.n_ranks)
    ]

    gather_bytes = sum(vec.nbytes for vec in global_state.values())
    edge_bytes = new_engine.graph.n_edges * 16  # two int64 endpoints
    if part.weighted:
        edge_bytes += new_engine.graph.n_edges * 8
    scatter_bytes = sum(
        arr.nbytes for per_rank in new_states for arr in per_rank.values()
    )
    cost_s = (gather_bytes + edge_bytes + scatter_bytes) / regrid_bw

    clocks = VirtualClocks(new_engine.n_ranks)
    clocks.load_state(
        VirtualClocks.align_state(ckpt.clocks, new_engine.n_ranks)
    )
    clocks.charge_regrid(range(new_engine.n_ranks), cost_s)

    migrated = Checkpoint(
        superstep=ckpt.superstep,
        algo=ckpt.algo,
        states=new_states,
        counters=copy.deepcopy(ckpt.counters),
        clocks=clocks.state_dict(),
        algo_state=copy.deepcopy(ckpt.algo_state),
        grid=(new_engine.grid.R, new_engine.grid.C),
        perm=part.perm.copy(),
        localmaps=[blk.localmap for blk in part.blocks],
    )
    return migrated, cost_s


# ----------------------------------------------------------------------
# the recovery driver
# ----------------------------------------------------------------------
class Recovery:
    """What :func:`drive_elastic` does with a failed run; this base
    resumes **in place**.

    The failed rank is modeled as replaced (fault specs are one-shot):
    the run re-enters on the same engine from its latest checkpoint —
    which is also how detected state corruption
    (:class:`~repro.faults.integrity.IntegrityViolation`) is repaired.
    A failure with no checkpoint to resume from, or beyond
    ``max_resumes``, propagates.  Subclasses change *where* the run
    continues: :class:`ElasticRecovery` regrids onto the survivors,
    :class:`~repro.faults.health.AutoscaleRecovery` also grows back.
    """

    name = "in-place"

    def __init__(self, max_resumes: int = 4):
        if max_resumes < 0:
            raise ValueError(f"max_resumes must be >= 0, got {max_resumes}")
        self.max_resumes = max_resumes
        self.resumes = 0
        self.regrids = 0
        self.events: list[dict] = []

    def prepare(self, engine) -> None:
        """Install per-engine machinery before the first attempt (the
        health monitor and autoscaler of
        :class:`~repro.faults.health.AutoscaleRecovery`); nothing for
        the purely reactive recoveries."""

    def recover(self, engine, failure: RankFailure):
        """Handle one failure; returns the engine to resume on."""
        mgr = engine.checkpoints
        if (
            mgr is None
            or mgr.latest() is None
            or self.resumes >= self.max_resumes
        ):
            raise failure
        self.resumes += 1
        return engine

    def grow(self, engine, arrival: SpareArrival):
        """Handle a spare the autoscaler decided to adopt; only
        :class:`~repro.faults.health.AutoscaleRecovery` can."""
        raise ElasticUnrecoverable(
            f"spare arrived at superstep {arrival.superstep} but "
            f"{type(self).__name__} cannot grow; use AutoscaleRecovery"
        )

    def _record(self, engine, event: FaultEvent) -> None:
        row = event.as_dict()
        engine.record_event(row)
        self.events.append(row)


class ElasticRecovery(Recovery):
    """Policy object turning unrecoverable crashes into regrids.

    Parameters
    ----------
    policy:
        A :class:`GridPolicy` or string spec (see
        :func:`resolve_policy`).
    regrid_bw:
        Modeled migration bandwidth in bytes/s (default 12 GB/s,
        matching the checkpoint drain bandwidth).
    max_regrids:
        Give up (raise :class:`ElasticUnrecoverable`) after this many
        regrids — a cascading-failure brake.
    """

    def __init__(
        self,
        policy: Union[GridPolicy, str] = "prefer-square",
        regrid_bw: float = 12e9,
        max_regrids: int = 4,
    ):
        if regrid_bw <= 0:
            raise ValueError(f"regrid_bw must be > 0, got {regrid_bw}")
        if max_regrids < 1:
            raise ValueError(f"max_regrids must be >= 1, got {max_regrids}")
        super().__init__()
        self.policy = resolve_policy(policy)
        self.regrid_bw = regrid_bw
        self.max_regrids = max_regrids

    @property
    def name(self) -> str:
        return self.policy.name

    def recover(self, engine, failure: RankFailure):
        """Handle one permanent rank loss; returns the engine to resume
        on (a rebuilt engine, or the same one when a spare absorbed the
        loss).  The engine's checkpoint manager is left holding the
        migrated checkpoint, ready for ``resume=True``."""
        mgr = engine.checkpoints
        if mgr is None or mgr.latest() is None:
            raise ElasticUnrecoverable(
                f"rank {failure.rank} lost at superstep {failure.superstep} "
                f"with no checkpoint to migrate from"
            ) from failure
        if self.regrids >= self.max_regrids:
            raise ElasticUnrecoverable(
                f"regrid budget exhausted ({self.max_regrids}); rank "
                f"{failure.rank} lost at superstep {failure.superstep}"
            ) from failure
        survivors = engine.n_ranks - 1
        if survivors < 1:
            raise ElasticUnrecoverable(
                "no surviving ranks to regrid onto"
            ) from failure

        ckpt = mgr.latest()
        new_grid = self.policy.choose(engine.grid, survivors)
        if new_grid is None:
            # Spare path: the grid is unchanged; charge re-materializing
            # the dead rank's state onto the spare (all ranks wait at
            # the BSP boundary while it catches up).
            dead = ckpt.states[failure.rank] if failure.rank is not None else {}
            cost_s = sum(a.nbytes for a in dead.values()) / self.regrid_bw
            migrated = copy.deepcopy(ckpt)
            clocks = VirtualClocks(engine.n_ranks)
            clocks.load_state(migrated.clocks)
            clocks.charge_regrid(range(engine.n_ranks), cost_s)
            migrated.clocks = clocks.state_dict()
            new_engine = engine
            spare = True
        else:
            if new_grid.n_ranks > survivors:
                raise ElasticUnrecoverable(
                    f"policy {self.policy.name!r} chose a "
                    f"{new_grid.n_ranks}-rank grid with only {survivors} "
                    f"survivors"
                ) from failure
            new_engine = engine.rebuild_on_grid(new_grid)
            migrated, cost_s = migrate_checkpoint(
                ckpt, new_engine, regrid_bw=self.regrid_bw
            )
            spare = False
        mgr.adopt(migrated)
        self.regrids += 1
        note_regrid = getattr(self.policy, "note_regrid", None)
        if note_regrid is not None:
            note_regrid(failure.superstep)
        self._record(
            new_engine,
            FaultEvent(
                "regrid",
                failure.rank,
                failure.superstep,
                failure.collective,
                retries=failure.retries,
                recovery_s=cost_s,
                extra={
                    "from_grid": (engine.grid.R, engine.grid.C),
                    "to_grid": (new_engine.grid.R, new_engine.grid.C),
                    "policy": self.policy.name,
                    "spare": spare,
                    "reason": getattr(failure, "fault_kind", "crash"),
                },
            ),
        )
        return new_engine


def drive_elastic(
    runner: Callable[[Any, bool], Any],
    engine,
    elastic: Optional[Recovery] = None,
):
    """Run ``runner(engine, resume)`` under a recovery loop — the one
    driver every resilient run goes through.

    ``runner`` is any resume-capable algorithm call, e.g. ``lambda e,
    r: bfs(e, root=0, resume=r)`` (single-source, batched, or a vertex
    program alike).  ``elastic`` says what a failure leads to: a
    :class:`Recovery` instance (:class:`ElasticRecovery` to regrid), or
    ``None`` to resume in place.

    Every :class:`RankFailure` that escapes the resilient
    communicator's retry budget (a crash, a demotion, detected state
    corruption) is handed to ``recover``, every :class:`SpareArrival`
    to ``grow``, and the runner is re-entered with ``resume=True`` on
    the engine they return — for an elastic recovery, one rebuilt on
    the surviving grid with the latest checkpoint migrated onto it.
    Returns the runner's result with ``extra["elastic"]`` describing
    what happened — including the final engine, which holds the
    post-regrid clocks, counters, and trace state (the original engine
    is stale after a shrink).
    """
    recovery = elastic if elastic is not None else Recovery()
    current = engine
    use_resume = False
    recovery.prepare(current)
    while True:
        try:
            result = runner(current, use_resume)
            break
        except SpareArrival as arrival:
            current = recovery.grow(current, arrival)
            use_resume = True
        except RankFailure as failure:
            current = recovery.recover(current, failure)
            use_resume = True
    result.extra["elastic"] = {
        "engine": current,
        "regrids": recovery.regrids,
        "resumes": recovery.resumes,
        "events": list(recovery.events),
        "final_grid": (current.grid.R, current.grid.C),
        "policy": recovery.name,
    }
    return result
