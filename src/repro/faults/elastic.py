"""One recovery object: resume in place, shrink, take a spare, grow.

At the paper's scale (hundreds of GPUs, multi-hour WDC12 runs) losing a
rank, carrying a chronic straggler and getting a spare back are routine.
:func:`drive_elastic` hands every failure of a run to one
:class:`Recovery`, whose ``policy`` string says where the run continues:

``"in-place"``
    the failed rank is modeled as replaced: the run resumes on the same
    engine from its latest checkpoint;
``"prefer-square"``
    the run shrinks onto the most square factor pair of the survivors
    (square grids minimize the larger of the two group sizes);
``"spare-pool[:N]"``
    N hot spares (default 1) keep the grid while they last, each
    adopting a dead rank's checkpointed state; then prefer-square;
``"autoscale"``
    prefer-square, plus a :class:`~repro.faults.health.HealthMonitor`
    whose chronic stragglers are demoted (a soft failure,
    :class:`~repro.faults.injector.RankDemotion`) and grow-back onto
    planned spare arrivals (``FaultSpec("recover")``).

Detected state corruption (``fault_kind == "integrity"``) resumes in
place under every policy: the rank that held the flipped bit is
healthy.  Shrink, spare and grow are one move: rebuild the engine on
the new grid (:meth:`Engine.rebuild_on_grid` carries counters, clocks
and every boundary hook; a spare keeps the engine), charge the move
into the latest :class:`~repro.faults.checkpoint.Checkpoint`'s clocks,
adopt it and resume through the ordinary ``resume=True`` path.  A
checkpoint holds each state once as a global vector in original vertex
order, and its loop state is grid-independent too, so ``Engine.restore``
writes it onto any grid as it is.  A move is charged to the ``regrid``
clock lane at :data:`REGRID_BW`: one checkpoint-sized AllGatherv, one
edge-list movement and one scatter of the new windows (a spare: the
dead rank's windows).

Exactness: every monotone (min/max-reducing) algorithm — bfs, cc,
sssp, label propagation, pointer jumping, and min/max vertex programs
— finishes with values **bit-identical** to the fault-free run, on any
grid trajectory, because min/max reductions are insensitive to the
operand grouping a new grid induces.  PageRank's floating-point *sum*
reductions are grouping-sensitive: values are bit-identical on the
spare-pool (same-grid) path and agree to within ~1 ulp after a shrink
(see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Optional

from ..comm.clocks import VirtualClocks
from ..comm.grid import Grid2D, check_count, squarest_grid
from ..core.hooks import Boundary, BoundaryHook
from .checkpoint import Checkpoint
from .health import HealthMonitor
from .injector import RankDemotion, RankFailure, SpareArrival
from .plan import FaultEvent

__all__ = [
    "POLICIES",
    "REGRID_BW",
    "ElasticUnrecoverable",
    "Recovery",
    "migrate_checkpoint",
    "drive_elastic",
]

#: The ``policy`` strings :class:`Recovery` takes.
POLICIES = ("in-place", "prefer-square", "spare-pool", "spare-pool:N", "autoscale")

#: Modeled migration bandwidth in bytes/s (the checkpoint drain's).
REGRID_BW = 12e9


class ElasticUnrecoverable(RuntimeError):
    """A move cannot continue the run (no checkpoint, no survivors, or
    the recovery budget is spent)."""


# ----------------------------------------------------------------------
# state migration
# ----------------------------------------------------------------------
def migrate_checkpoint(ckpt: Checkpoint, new_engine) -> tuple[Checkpoint, float]:
    """Move a checkpoint onto ``new_engine``'s grid.

    Returns the moved checkpoint and the charged migration time.  The
    state needs no re-expression (it is grid-independent); the clocks
    rendezvous onto the new rank count.  The cost model is one
    checkpoint-sized AllGatherv (global state reassembly), one
    edge-list movement (re-partition), and one scatter of the new
    per-rank windows, all at :data:`REGRID_BW`.  The time is charged
    into the *moved checkpoint's* clock state (synchronizing all new
    ranks), so the subsequent ``Engine.restore`` keeps it — exactly how
    checkpoint drains embed their own cost.  Communication counters are
    deliberately left untouched: like retries, migration traffic
    describes the weather, not the algorithm.
    """
    n = new_engine.partition.n_vertices
    if any(len(vec) != n for vec in ckpt.state.values()):
        raise ValueError(f"cannot migrate a checkpoint onto a partition of {n} vertices")
    edge_bytes = new_engine.graph.n_edges * 16  # two int64 endpoints
    if new_engine.partition.weighted:
        edge_bytes += new_engine.graph.n_edges * 8
    scatter_bytes = int(new_engine.fleet.n_total.sum()) * ckpt.cell_bytes
    cost_s = (ckpt.nbytes + edge_bytes + scatter_bytes) / REGRID_BW
    clocks = VirtualClocks.align_state(ckpt.clocks, new_engine.n_ranks)
    return _charge_regrid(ckpt, clocks, cost_s), cost_s


def _charge_regrid(ckpt: Checkpoint, clocks: dict, cost_s: float) -> Checkpoint:
    """``ckpt`` with clock state ``clocks`` and ``cost_s`` charged to
    every rank's ``regrid`` lane."""
    n_ranks = len(clocks["clock"])
    charged = VirtualClocks(n_ranks)
    charged.load_state(clocks)
    charged.charge("regrid", range(n_ranks), cost_s)
    return replace(ckpt, clocks=charged.state_dict())


# ----------------------------------------------------------------------
# the recovery driver
# ----------------------------------------------------------------------
class Recovery(BoundaryHook):
    """What :func:`drive_elastic` does with a failed run.

    Parameters
    ----------
    policy:
        Where a failed run continues: one of :data:`POLICIES` (see the
        module docstring).  ``name`` is the policy without its spare
        count.
    max_recoveries:
        Resumes plus moves a run may take; past it a failure propagates
        (resumed in place) or raises :class:`ElasticUnrecoverable`.  It
        and ``hysteresis`` are integers >= 0: a float or a bool raises
        ``ValueError``.
    hysteresis:
        Supersteps an arrived spare waits before the autoscaler adopts
        it (a spare arriving at the convergence tail never pays for its
        migration).  ``"autoscale"`` only.
    monitor:
        The autoscaler's :class:`HealthMonitor` (default: a fresh one).
        ``"autoscale"`` only.

    With ``"autoscale"`` the recovery is also the engine's ``decide``
    boundary hook: :meth:`prepare` attaches it and the monitor, and
    ``Engine.rebuild_on_grid`` carries both onto every later engine.
    """

    slot = "autoscaler"
    phases = ("decide",)

    def __init__(
        self,
        policy: str = "in-place",
        max_recoveries: int = 4,
        hysteresis: int = 0,
        monitor: Optional[HealthMonitor] = None,
    ):
        name, colon, spares = str(policy).partition(":")
        if name not in POLICIES or (
            colon and (name != "spare-pool" or not spares.isdecimal())
        ):
            raise ValueError(
                f"unknown recovery policy {policy!r}; choose from "
                f"{', '.join(POLICIES)} (N >= 0)"
            )
        max_recoveries = check_count(max_recoveries, "max_recoveries", minimum=0)
        hysteresis = check_count(hysteresis, "hysteresis", minimum=0)
        if name != "autoscale" and (monitor is not None or hysteresis):
            raise ValueError(
                f"monitor= and hysteresis= need policy 'autoscale', got {policy!r}"
            )
        self.name = name
        self.spares = int(spares) if colon else int(name == "spare-pool")
        self.max_recoveries = max_recoveries
        self.hysteresis = hysteresis
        self.monitor = None
        if name == "autoscale":
            self.monitor = monitor if monitor is not None else HealthMonitor()
        self.resumes = 0
        self.regrids = 0
        self.events: list[dict] = []
        #: Arrival supersteps of delivered-but-unadopted spares.
        self.pending: list[int] = []
        self._held = False
        self._last_move: Optional[int] = None

    def prepare(self, engine) -> None:
        """Install the autoscaler before the first attempt; nothing for
        the reactive policies."""
        if self.monitor is not None:
            engine.attach_health(self.monitor)
            engine.attach_autoscaler(self)

    # ------------------------------------------------------------------
    # reacting: failures and adopted spares
    # ------------------------------------------------------------------
    def recover(self, engine, failure: RankFailure):
        """Handle one failure; returns the engine to resume on, whose
        checkpoint manager holds the checkpoint to resume from."""
        if self.name == "in-place" or failure.fault_kind == "integrity":
            mgr = engine.checkpoints
            if mgr is None or mgr.latest() is None or self._spent():
                raise failure
            self.resumes += 1
            return engine
        if engine.n_ranks < 2:
            raise ElasticUnrecoverable("no surviving ranks to regrid onto")
        spare = self.spares > 0
        self.spares -= spare
        return self._move(
            engine,
            None if spare else squarest_grid(engine.n_ranks - 1),
            FaultEvent(
                "regrid", failure.rank, failure.superstep, failure.collective,
                retries=failure.retries, extra={"reason": failure.fault_kind},
            ),
        )

    def grow(self, engine, arrival: SpareArrival):
        """Adopt the oldest pending spare: move onto ``p + 1`` ranks."""
        new_engine = self._move(
            engine,
            squarest_grid(engine.n_ranks + 1),
            FaultEvent("grow", None, arrival.superstep, "boundary"),
        )
        self.pending.pop(0)
        new_engine.spare_ranks = max(0, new_engine.spare_ranks - 1)
        return new_engine

    def _move(self, engine, new_grid: Optional[Grid2D], event: FaultEvent):
        """Continue the run on ``new_grid`` (``None``: the same grid, a
        spare adopting the dead rank's state): checkpoint → rebuild →
        migrate → adopt → record ``event`` with the grids and the cost."""
        mgr = engine.checkpoints
        what = f"{event.kind} at superstep {event.superstep}"
        if mgr is None or mgr.latest() is None:
            raise ElasticUnrecoverable(f"{what} with no checkpoint to migrate from")
        if self._spent():
            raise ElasticUnrecoverable(
                f"recovery budget exhausted ({self.max_recoveries}); {what}"
            )
        ckpt = mgr.latest()
        if new_grid is None:
            # Every rank waits at the BSP boundary while the spare
            # re-materializes the dead rank's windows.
            cells = 0 if event.rank is None else engine.fleet.n_total[event.rank]
            cost_s = int(cells) * ckpt.cell_bytes / REGRID_BW
            migrated = _charge_regrid(ckpt, ckpt.clocks, cost_s)
            new_engine = engine
        else:
            new_engine = engine.rebuild_on_grid(new_grid)
            migrated, cost_s = migrate_checkpoint(ckpt, new_engine)
        mgr.adopt(migrated)
        self.regrids += 1
        self._last_move = event.superstep
        grids = {
            "from_grid": (engine.grid.R, engine.grid.C),
            "to_grid": (new_engine.grid.R, new_engine.grid.C),
            "policy": self.name,
            "spare": new_grid is None,
        }
        self._record(
            new_engine,
            replace(event, recovery_s=cost_s, extra={**grids, **event.extra}),
        )
        return new_engine

    def _spent(self) -> bool:
        return self.resumes + self.regrids >= self.max_recoveries

    # ------------------------------------------------------------------
    # deciding: the autoscaler's boundary hook
    # ------------------------------------------------------------------
    def on_phase(self, phase: str, engine, boundary: Boundary) -> None:
        """Fired in the ``decide`` phase, after this boundary's
        checkpoint is saved, so a move drains from it: demote the worst
        chronic rank (raises :class:`RankDemotion`), else adopt a
        pending spare (raises :class:`SpareArrival`) or record one
        ``hold`` event per arrival batch naming why not."""
        step = boundary.superstep
        if boundary.spares_arrived:
            self.pending.extend([step] * boundary.spares_arrived)
            self._held = False
        mgr = engine.checkpoints
        if mgr is None or mgr.latest() is None:
            return  # nothing to drain from yet; try the next boundary
        chronic = self.monitor.chronic_ranks()
        if chronic and engine.n_ranks > 1 and self._hold("demote", step) is None:
            rank = chronic[0]
            score = float(self.monitor.scores[rank])
            self._record(
                engine,
                FaultEvent(
                    "demote", rank, step, "boundary",
                    extra={"score": score, "policy": self.name},
                ),
            )
            raise RankDemotion(rank, step, score=score)
        if not self.pending:
            return
        reason = self._hold("grow", step, waited=step - self.pending[0])
        if reason is None:
            raise SpareArrival(step, pending=len(self.pending))
        if not self._held:
            self._held = True
            self._record(
                engine,
                FaultEvent(
                    "hold", None, step, "boundary",
                    extra={
                        "reason": reason,
                        "pending": len(self.pending),
                        "policy": self.name,
                    },
                ),
            )

    def _hold(
        self, kind: str, superstep: int, waited: Optional[int] = None
    ) -> Optional[str]:
        """Why a ``demote`` / ``grow`` decision is held at ``superstep``
        (``None``: go).  Each decision is taken at most once per run (the
        oscillation guard), a spare must have waited ``hysteresis``
        supersteps, and nothing moves at the superstep of the last move."""
        if any(e["kind"] == kind for e in self.events):
            return "max-grows"
        if waited is not None and waited < self.hysteresis:
            return "hysteresis"
        if self._last_move is not None and superstep <= self._last_move:
            return "cooldown"
        return None

    def _record(self, engine, event: FaultEvent) -> None:
        row = event.as_dict()
        engine.record_event(row)
        self.events.append(row)


def drive_elastic(
    runner: Callable[[Any, bool], Any],
    engine,
    recovery: Optional[Recovery] = None,
):
    """Run ``runner(engine, resume)`` under a recovery loop — the one
    driver every resilient run goes through.

    ``runner`` is any resume-capable algorithm call, e.g. ``lambda e,
    r: bfs(e, root=0, resume=r)`` (single-source, batched, or a vertex
    program alike).  ``recovery`` says what a failure leads to
    (default ``Recovery()``: resume in place).

    Every :class:`RankFailure` that escapes the communicator's retry
    budget (a crash, a demotion, detected state corruption) is handed
    to ``recover``, every :class:`SpareArrival` to ``grow``, and the
    runner is re-entered with ``resume=True`` on the engine they
    return.  Returns the runner's result with ``extra["elastic"]``
    describing what happened — including the final engine, which holds
    the post-move clocks, counters, and trace state (the original
    engine is stale after a shrink).
    """
    recovery = recovery if recovery is not None else Recovery()
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
