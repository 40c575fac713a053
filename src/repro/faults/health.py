"""Rank-health watchdog: progress ledger, demotion, elastic grow-back.

The elastic machinery (:mod:`repro.faults.elastic`) reacts to *hard*
failures — a crash raises, the grid shrinks.  At the paper's target
scale (hundreds of GPUs, multi-hour WDC12 runs) the operationally
harder cases are the soft ones: a rank that is alive but persistently
slow drags the whole BSP group at every collective, and a replacement
node that comes back mid-run is wasted unless the job can grow onto
it.  This module closes the elastic loop in both directions:

* :class:`HealthMonitor` — a per-rank progress ledger sampled at
  superstep boundaries from :class:`~repro.comm.clocks.VirtualClocks`
  lane deltas.  Each boundary, a rank's *excess* is how far its
  compute and recovery deltas sit above the group median (median-
  relative, so globally-charged costs like checkpoint drains cancel);
  an EWMA of the excess is compared against a threshold to classify
  the rank healthy / suspect / chronic.  Injected ``straggler`` specs
  thereby become *detectable*, not just charged.
* :class:`DemotionPolicy` — decides when a chronic straggler becomes a
  soft failure: the boundary raises
  :class:`~repro.faults.injector.RankDemotion` (a
  :class:`~repro.faults.injector.RankFailure` subclass), and the
  ordinary elastic path drains the rank via the checkpoint saved at
  that same boundary and regrids down.
* :class:`AutoscalePolicy` — generalizes
  :class:`~repro.faults.elastic.GridPolicy` to both directions: the
  shrink direction delegates to a wrapped policy, while the grow
  direction watches planned spare arrivals
  (``FaultSpec(kind="recover")``) and decides grow vs. hold under
  hysteresis (a spare must age before adoption), a cooldown after any
  regrid, and a total grow budget (the oscillation guard).
* :class:`AutoscaleRecovery` — an
  :class:`~repro.faults.elastic.ElasticRecovery` that installs the
  monitor and itself onto every engine generation and implements the
  up-migration: ``migrate_checkpoint`` onto the ``p+1``-rank grid
  chosen by :meth:`AutoscalePolicy.grow_grid`.

Every transition is recorded as an event (kinds ``health``,
``demote``, ``grow``, ``hold``, plus the injector's ``recover``) that
surfaces through ``Engine.fault_events`` and therefore on trace rows,
and every migration is charged to the ``regrid`` clock lane.  The PR 5
exactness contract carries over unchanged: demote and grow transitions
are bit-identical for monotone algorithms on any grid trajectory.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..comm.grid import Grid2D, squarest_grid
from ..core.hooks import Boundary, BoundaryHook
from .elastic import ElasticRecovery, ElasticUnrecoverable, GridPolicy, migrate_checkpoint, resolve_policy
from .injector import RankDemotion, SpareArrival
from .plan import FaultEvent

__all__ = [
    "RANK_HEALTH",
    "HealthMonitor",
    "DemotionPolicy",
    "AutoscalePolicy",
    "AutoscaleRecovery",
]

#: Health classifications, in escalation order.
RANK_HEALTH = ("healthy", "suspect", "chronic")


class HealthMonitor(BoundaryHook):
    """Per-rank progress ledger with EWMA deviation scoring.

    Attach with ``engine.attach_health(monitor)``; it fires in the
    ``observe`` boundary phase and re-baselines (:meth:`bind`) whenever
    it is attached — which includes every ``rebuild_on_grid``
    generation — and after every restore and timer reset.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in ``(0, 1]``: the weight of the newest
        excess sample.  High values react fast (the default 0.5 flags
        a repeatedly-injected straggler within two supersteps); low
        values favor sustained deviation over spikes.
    suspect_s:
        Absolute score floor, in virtual seconds: a rank is suspect
        only when its EWMA excess exceeds ``max(suspect_s,
        rel_threshold * median_delta)``.  The floor keeps scheduling
        noise at small scales from ever flagging anyone.
    rel_threshold:
        Relative component of the threshold: multiples of the group's
        median per-superstep progress delta a rank must fall behind by.
        Keeps the classifier scale-free — big graphs have big deltas.
    chronic_after:
        Consecutive suspect boundaries before a rank is classified
        chronic (and becomes eligible for demotion).
    """

    def __init__(
        self,
        alpha: float = 0.5,
        suspect_s: float = 1e-4,
        rel_threshold: float = 4.0,
        chronic_after: int = 3,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if suspect_s <= 0:
            raise ValueError(f"suspect_s must be > 0, got {suspect_s}")
        if rel_threshold < 0:
            raise ValueError(
                f"rel_threshold must be >= 0, got {rel_threshold}"
            )
        if chronic_after < 1:
            raise ValueError(
                f"chronic_after must be >= 1, got {chronic_after}"
            )
        self.alpha = alpha
        self.suspect_s = suspect_s
        self.rel_threshold = rel_threshold
        self.chronic_after = chronic_after
        self.n_ranks = 0
        self.scores = np.zeros(0)
        self.streaks = np.zeros(0, dtype=np.int64)
        self.statuses: list[str] = []
        self._last: Optional[dict[str, np.ndarray]] = None
        #: Transition history across all engine generations (bind
        #: resets the per-rank ledger, not this log).
        self.events: list[dict] = []

    slot = "health"
    phases = ("observe",)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """(Re)baseline against ``engine``'s current clocks.

        Called on attach, after every ``rebuild_on_grid`` (rank count
        and identities changed), after every ``restore`` (clocks
        rewound; diffing against pre-restore samples would go
        negative) and on ``reset_timers``.  Scores, streaks, and
        statuses reset — a new grid starts healthy.
        """
        self.n_ranks = engine.n_ranks
        self.scores = np.zeros(self.n_ranks)
        self.streaks = np.zeros(self.n_ranks, dtype=np.int64)
        self.statuses = ["healthy"] * self.n_ranks
        self._last = self._sample(engine)

    def on_attach(self, engine) -> None:
        self.bind(engine)

    def on_restore(self, engine, ckpt) -> None:
        self.bind(engine)

    on_reset = on_attach

    def on_phase(self, phase: str, engine, boundary: Boundary) -> None:
        self.observe(engine, boundary.superstep)

    @staticmethod
    def _sample(engine) -> dict[str, np.ndarray]:
        lanes = engine.clocks.per_rank_lanes()
        return {"compute": lanes["compute"], "recovery": lanes["recovery"]}

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe(self, engine, superstep: int) -> list[dict]:
        """Sample one superstep boundary; returns new transition events.

        A rank's excess combines how far its compute-lane delta and its
        recovery-lane delta sit above the group medians.  Injected
        straggler stalls land in one rank's recovery lane; checkpoint
        drains land in *every* rank's, so the median-relative form
        cancels them.  Transitions (healthy → suspect → chronic, and
        back) are recorded via ``engine.record_event`` so they surface
        in ``fault_events`` and on trace rows.
        """
        if self._last is None or engine.n_ranks != self.n_ranks:
            self.bind(engine)
            return []
        now = self._sample(engine)
        d_comp = now["compute"] - self._last["compute"]
        d_rec = now["recovery"] - self._last["recovery"]
        self._last = now
        excess = np.maximum(d_comp - np.median(d_comp), 0.0) + np.maximum(
            d_rec - np.median(d_rec), 0.0
        )
        self.scores = self.alpha * excess + (1.0 - self.alpha) * self.scores
        threshold = max(
            self.suspect_s,
            self.rel_threshold * float(np.median(d_comp + d_rec)),
        )
        transitions: list[dict] = []
        for rank in range(self.n_ranks):
            if self.scores[rank] > threshold:
                self.streaks[rank] += 1
                status = (
                    "chronic"
                    if self.streaks[rank] >= self.chronic_after
                    else "suspect"
                )
            else:
                self.streaks[rank] = 0
                status = "healthy"
            if status != self.statuses[rank]:
                event = FaultEvent(
                    "health", rank, superstep, "boundary",
                    extra={"status": status, "score": float(self.scores[rank])},
                ).as_dict()
                transitions.append(event)
                engine.record_event(event)
                self.statuses[rank] = status
        self.events.extend(transitions)
        return transitions

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def status(self, rank: int) -> str:
        return self.statuses[rank]

    def chronic_ranks(self) -> list[int]:
        """Ranks currently classified chronic, worst score first."""
        chronic = [
            r for r in range(self.n_ranks) if self.statuses[r] == "chronic"
        ]
        return sorted(chronic, key=lambda r: -self.scores[r])

    def report(self) -> dict:
        """Plain-data ledger snapshot (CLI / test surface)."""
        return {
            "n_ranks": self.n_ranks,
            "statuses": list(self.statuses),
            "scores": [float(s) for s in self.scores],
            "streaks": [int(s) for s in self.streaks],
            "n_transitions": len(self.events),
        }


class DemotionPolicy:
    """Decides when a chronic straggler becomes a soft failure.

    Parameters
    ----------
    warmup:
        Boundaries to observe before any demotion is allowed (scores
        need at least one sample; more warmup means more evidence).
    cooldown:
        Minimum supersteps between consecutive demotions.
    max_demotions:
        Total demotion budget for the run — with the grow budget of
        :class:`AutoscalePolicy` this bounds the demote/grow
        oscillation a flapping rank could otherwise induce.
    """

    def __init__(
        self, warmup: int = 1, cooldown: int = 1, max_demotions: int = 1
    ):
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        if max_demotions < 0:
            raise ValueError(
                f"max_demotions must be >= 0, got {max_demotions}"
            )
        self.warmup = warmup
        self.cooldown = cooldown
        self.max_demotions = max_demotions
        self.demotions = 0
        self._last_demotion: Optional[int] = None

    def consider(self, engine, monitor, superstep: int) -> Optional[int]:
        """Return the rank to demote at this boundary, or ``None``.

        A demotion requires a chronic rank, budget, a checkpoint to
        drain from, and at least one surviving rank afterwards.
        Consuming the decision updates the budget/cooldown state, so
        callers must raise on a non-``None`` return.
        """
        if monitor is None or self.demotions >= self.max_demotions:
            return None
        if superstep < self.warmup:
            return None
        if (
            self._last_demotion is not None
            and superstep - self._last_demotion < self.cooldown
        ):
            return None
        if engine.n_ranks <= 1:
            return None
        mgr = engine.checkpoints
        if mgr is None or mgr.latest() is None:
            return None
        chronic = monitor.chronic_ranks()
        if not chronic:
            return None
        self.demotions += 1
        self._last_demotion = superstep
        return chronic[0]


class AutoscalePolicy(GridPolicy):
    """Bidirectional grid policy: shrink on failure, grow on spares.

    The shrink direction (the :class:`GridPolicy` interface used by
    :meth:`ElasticRecovery.recover`) delegates to a wrapped policy.
    The grow direction tracks pending spare arrivals and holds back
    adoption until three conditions clear:

    * **hysteresis** — the oldest pending spare must have waited at
      least this many supersteps (a spare that arrives at the
      convergence tail never pays for its migration; holding lets the
      run finish first);
    * **cooldown** — at least this many supersteps since the last
      regrid in either direction (migrations back-to-back thrash);
    * **grow budget** — at most ``max_grows`` grows per run (with the
      demotion budget, the oscillation guard).
    """

    name = "autoscale"

    def __init__(
        self,
        shrink: Union[GridPolicy, str] = "prefer-square",
        hysteresis: int = 0,
        cooldown: int = 1,
        max_grows: int = 1,
    ):
        if hysteresis < 0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        if max_grows < 0:
            raise ValueError(f"max_grows must be >= 0, got {max_grows}")
        self.shrink = resolve_policy(shrink)
        self.hysteresis = hysteresis
        self.cooldown = cooldown
        self.max_grows = max_grows
        self.grows = 0
        #: Arrival supersteps of delivered-but-unadopted spares.
        self.pending: list[int] = []
        self._last_regrid: Optional[int] = None
        self._held = False

    # --- shrink direction (GridPolicy interface) ----------------------
    def choose(self, grid: Grid2D, survivors: int) -> Optional[Grid2D]:
        return self.shrink.choose(grid, survivors)

    # --- grow direction -----------------------------------------------
    def grow_grid(self, grid: Grid2D) -> Grid2D:
        """The grid a grow targets: squarest factor pair of ``p+1``."""
        return squarest_grid(grid.n_ranks + 1)

    def spare_arrived(self, superstep: int, count: int = 1) -> None:
        self.pending.extend([superstep] * count)
        self._held = False

    def note_regrid(self, superstep: int) -> None:
        """Any regrid (shrink, spare adoption, or grow) arms the
        cooldown."""
        self._last_regrid = superstep

    def hold_reason(self, superstep: int) -> Optional[str]:
        """Why a pending spare is not adopted now (``None`` = grow)."""
        if not self.pending:
            return "no-spare"
        if self.grows >= self.max_grows:
            return "max-grows"
        if superstep - self.pending[0] < self.hysteresis:
            return "hysteresis"
        if (
            self._last_regrid is not None
            and superstep - self._last_regrid < self.cooldown
        ):
            return "cooldown"
        return None

    def should_grow(self, superstep: int) -> bool:
        return self.hold_reason(superstep) is None


class AutoscaleRecovery(ElasticRecovery, BoundaryHook):
    """Elastic recovery with the health loop closed in both directions.

    Extends :class:`~repro.faults.elastic.ElasticRecovery` with

    * :meth:`prepare` — installs the :class:`HealthMonitor` and itself
      (as the boundary autoscaler) on the engine;
      ``Engine.rebuild_on_grid`` carries both onto every later
      generation automatically.
    * :meth:`on_boundary` — the decision point, fired in the
      ``decide`` boundary phase (after this boundary's checkpoint is
      saved, so a decision drains from it): first the
      :class:`DemotionPolicy` (a hit raises :class:`RankDemotion`,
      handled by the inherited shrink path), then the grow side (a
      clear :class:`AutoscalePolicy` raises :class:`SpareArrival`; a
      held spare records one ``hold`` event naming the reason).
    * :meth:`grow` — the up-migration ``drive_elastic`` runs on
      :class:`SpareArrival`: rebuild on ``grow_grid``, migrate the
      latest checkpoint up (cost on the ``regrid`` lane), adopt, and
      resume.
    """

    slot = "autoscaler"
    phases = ("decide",)

    def __init__(
        self,
        policy: Optional[AutoscalePolicy] = None,
        monitor: Optional[HealthMonitor] = None,
        demotion: Optional[DemotionPolicy] = None,
        regrid_bw: float = 12e9,
        max_regrids: int = 6,
    ):
        if policy is None:
            policy = AutoscalePolicy()
        if not isinstance(policy, AutoscalePolicy):
            raise ValueError(
                f"AutoscaleRecovery needs an AutoscalePolicy, got "
                f"{type(policy).__name__}"
            )
        super().__init__(
            policy=policy, regrid_bw=regrid_bw, max_regrids=max_regrids
        )
        self.monitor = monitor if monitor is not None else HealthMonitor()
        self.demotion = demotion if demotion is not None else DemotionPolicy()

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def prepare(self, engine) -> None:
        engine.attach_health(self.monitor)
        engine.attach_autoscaler(self)

    def on_phase(self, phase: str, engine, boundary: Boundary) -> None:
        if boundary.spares_arrived:
            self.policy.spare_arrived(
                boundary.superstep, boundary.spares_arrived
            )
        self.on_boundary(engine, boundary.superstep)

    def on_boundary(self, engine, superstep: int) -> None:
        rank = self.demotion.consider(engine, self.monitor, superstep)
        if rank is not None:
            score = float(self.monitor.scores[rank])
            self._record(
                engine,
                FaultEvent(
                    "demote", rank, superstep, "boundary",
                    extra={"score": score, "policy": self.policy.name},
                ),
            )
            raise RankDemotion(rank, superstep, score=score)
        if not self.policy.pending:
            return
        mgr = engine.checkpoints
        if mgr is None or mgr.latest() is None:
            return  # nothing to migrate up yet; try the next boundary
        reason = self.policy.hold_reason(superstep)
        if reason is None:
            raise SpareArrival(superstep, pending=len(self.policy.pending))
        if not self.policy._held:
            # One hold event per arrival batch: the *decision* not to
            # grow is as much a policy output as growing.
            self.policy._held = True
            self._record(
                engine,
                FaultEvent(
                    "hold", None, superstep, "boundary",
                    extra={
                        "reason": reason,
                        "pending": len(self.policy.pending),
                        "policy": self.policy.name,
                    },
                ),
            )

    # ------------------------------------------------------------------
    # the up direction
    # ------------------------------------------------------------------
    def grow(self, engine, arrival: SpareArrival):
        """Regrid onto ``p+1`` ranks; returns the engine to resume on."""
        mgr = engine.checkpoints
        if mgr is None or mgr.latest() is None:
            raise ElasticUnrecoverable(
                f"spare arrived at superstep {arrival.superstep} with no "
                f"checkpoint to migrate up from"
            )
        if self.regrids >= self.max_regrids:
            raise ElasticUnrecoverable(
                f"regrid budget exhausted ({self.max_regrids}); spare at "
                f"superstep {arrival.superstep} not adopted"
            )
        ckpt = mgr.latest()
        new_grid = self.policy.grow_grid(engine.grid)
        new_engine = engine.rebuild_on_grid(new_grid)
        migrated, cost_s = migrate_checkpoint(
            ckpt, new_engine, regrid_bw=self.regrid_bw
        )
        mgr.adopt(migrated)
        self.regrids += 1
        self.policy.pending.pop(0)
        self.policy.grows += 1
        self.policy.note_regrid(arrival.superstep)
        new_engine.spare_ranks = max(0, new_engine.spare_ranks - 1)
        self._record(
            new_engine,
            FaultEvent(
                "grow", None, arrival.superstep, "boundary",
                recovery_s=cost_s,
                extra={
                    "from_grid": (engine.grid.R, engine.grid.C),
                    "to_grid": (new_engine.grid.R, new_engine.grid.C),
                    "policy": self.policy.name,
                    "spare": False,
                },
            ),
        )
        return new_engine
