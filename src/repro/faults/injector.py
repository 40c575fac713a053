"""Fault injection state machine.

The :class:`FaultInjector` walks a :class:`~repro.faults.plan.FaultPlan`
alongside the run: the engine advances its superstep counter at every
BSP boundary (``Engine.superstep_boundary``) and the
:class:`~repro.faults.resilient.ResilientCommunicator` consults it
before every collective.  The injector answers three questions —

* :meth:`crash_among` — is a crashed rank in this group?  (Crashes
  persist from their superstep onward and fire on the *first*
  collective that touches the dead rank; the spec is then consumed, so
  a restored-from-checkpoint rerun with the same injector models a
  replaced rank rather than an eternally crashing one.)
* :meth:`stragglers_for` — which group members must stall first?
* :meth:`next_disruption` — does this attempt fail (transient or
  corruption)?  Each call consumes one planned failure attempt, so a
  ``count=2`` transient fails twice then succeeds.

Everything the injector observes lands in :attr:`events` as
:class:`~repro.faults.plan.FaultEvent` rows, which the engine exposes
(``Engine.fault_events``) and the trace recorder attaches to iteration
rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.hooks import Boundary, BoundaryHook
from .plan import FaultEvent, FaultPlan, FaultSpec

__all__ = ["FaultInjector", "RankFailure", "RankDemotion", "SpareArrival"]


class RankFailure(RuntimeError):
    """A rank died (or a collective exhausted its retry budget).

    Carries structured diagnostics — which rank, at which superstep,
    inside which collective, after how many retries — so recovery code
    and test assertions don't need to parse the message.
    """

    def __init__(
        self,
        rank: Optional[int],
        superstep: int,
        collective: str,
        fault_kind: str = "crash",
        retries: int = 0,
    ):
        self.rank = rank
        self.superstep = superstep
        self.collective = collective
        self.fault_kind = fault_kind
        self.retries = retries
        who = f"rank {rank}" if rank is not None else "a rank"
        detail = (
            f" after {retries} retries" if retries else ""
        )
        super().__init__(
            f"{fault_kind} failure: {who} failed during {collective!r} "
            f"at superstep {superstep}{detail}"
        )


class RankDemotion(RankFailure):
    """A chronic straggler demoted by the health watchdog.

    A *soft* failure: the rank is alive but persistently slow, and the
    :class:`~repro.faults.health.DemotionPolicy` decided draining it
    beats dragging the whole BSP group.  Subclassing
    :class:`RankFailure` means every existing recovery path — the
    elastic drive loop, `ElasticRecovery.recover`, spare adoption —
    handles a demotion exactly like a crash, except it is raised at a
    superstep boundary (so the checkpoint saved at that boundary is
    current: nothing recomputes).
    """

    def __init__(self, rank: int, superstep: int, score: float = 0.0):
        super().__init__(
            rank,
            superstep,
            collective="boundary",
            fault_kind="chronic-straggler",
        )
        self.score = score


class SpareArrival(Exception):
    """Control-flow signal: grow the grid onto an available spare.

    Raised by the attached autoscaler at a superstep boundary when a
    planned ``recover`` spec has delivered a spare *and* the
    :class:`~repro.faults.health.AutoscalePolicy` (hysteresis,
    cooldown, grow budget) decided adoption beats holding.  Not an
    error — ``drive_elastic`` catches it and runs
    ``migrate_checkpoint`` in the up direction.
    """

    def __init__(self, superstep: int, pending: int = 1):
        self.superstep = superstep
        self.pending = pending
        super().__init__(
            f"spare rank available at superstep {superstep} "
            f"({pending} pending)"
        )


class FaultInjector(BoundaryHook):
    """Executes a :class:`FaultPlan` against a running engine.

    The injector is deliberately dumb about *time* — backoff and stall
    charging live in the resilient communicator — and smart about
    *when/where*: it tracks the current superstep, matches specs to
    collectives, and consumes one-shot specs exactly once.

    As a boundary hook it fires twice: planned memflips land in the
    ``inject`` phase (before anything verifies or saves the state), and
    planned spares are delivered in the ``arrivals`` phase, after which
    the run is inside the next superstep.
    """

    slot = "faults"
    phases = ("inject", "arrivals")

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: Retry budget of the communicator wrapped around every engine
        #: this injector is attached to (``Engine.attach_faults``).
        self.max_retries = 4
        self.superstep = 1
        self.events: list[FaultEvent] = []
        # crash specs become "armed" at their superstep and stay armed
        # until consumed by the first collective touching their rank
        self._pending_crashes: list[FaultSpec] = list(
            s for s in plan if s.kind == "crash"
        )
        # remaining failure attempts per transient/corruption spec
        self._attempts: dict[int, int] = {
            id(s): s.count for s in plan if s.kind in ("transient", "corruption")
        }
        # stragglers fire once, on the first matching collective
        self._pending_stragglers: list[FaultSpec] = list(
            s for s in plan if s.kind == "straggler"
        )
        # spare arrivals are consumed at superstep boundaries
        self._pending_recovers: list[FaultSpec] = list(
            s for s in plan if s.kind == "recover"
        )
        # memory bit-flips are consumed at superstep boundaries too
        self._pending_memflips: list[FaultSpec] = list(
            s for s in plan if s.kind == "memflip"
        )

    # ------------------------------------------------------------------
    # engine hooks (see repro.core.hooks)
    # ------------------------------------------------------------------
    def on_attach(self, engine) -> None:
        from .resilient import ResilientCommunicator

        engine.comm = ResilientCommunicator(
            engine.base_comm, self, max_retries=self.max_retries
        )

    def on_phase(self, phase: str, engine, boundary: Boundary) -> None:
        superstep = boundary.superstep
        if phase == "inject":
            flips = self.memflips_for(superstep)
            if flips:
                from .integrity import apply_memflip

                for spec in flips:
                    # A rank lost to an earlier regrid cannot corrupt
                    # the survivors' state; the spec is still consumed.
                    if spec.rank < engine.n_ranks:
                        apply_memflip(engine.contexts[spec.rank], spec)
                    self.record(
                        FaultEvent(
                            "memflip", spec.rank, superstep, "boundary",
                            detected=False,
                        )
                    )
        else:
            for spec in self.arrivals_for(superstep):
                engine.spare_ranks += spec.count
                boundary.spares_arrived += spec.count
                self.record(FaultEvent("recover", None, superstep, "boundary"))
            self.begin_superstep(superstep + 1)

    def on_restore(self, engine, ckpt) -> None:
        # Fast-forward so remaining planned faults line up with the
        # resumed run.
        self.begin_superstep(ckpt.superstep + 1)

    def on_reset(self, engine) -> None:
        self.reset()

    # ------------------------------------------------------------------
    # run-position tracking
    # ------------------------------------------------------------------
    def begin_superstep(self, superstep: int) -> None:
        """The run is now inside ``superstep``."""
        self.superstep = superstep

    def reset(self) -> None:
        """Re-arm the full plan for a fresh run (``Engine.reset_timers``
        does, so an engine reused across runs replays its plan)."""
        self.superstep = 1
        self.events.clear()
        self._pending_crashes = [s for s in self.plan if s.kind == "crash"]
        self._attempts = {
            id(s): s.count
            for s in self.plan
            if s.kind in ("transient", "corruption")
        }
        self._pending_stragglers = [
            s for s in self.plan if s.kind == "straggler"
        ]
        self._pending_recovers = [
            s for s in self.plan if s.kind == "recover"
        ]
        self._pending_memflips = [
            s for s in self.plan if s.kind == "memflip"
        ]

    # ------------------------------------------------------------------
    # matching helpers
    # ------------------------------------------------------------------
    def _matches(self, spec: FaultSpec, kind: str, ranks: Sequence[int]) -> bool:
        if spec.collective is not None and spec.collective != kind:
            return False
        if spec.rank is not None and spec.rank not in ranks:
            return False
        return True

    # ------------------------------------------------------------------
    # queries (called by ResilientCommunicator)
    # ------------------------------------------------------------------
    def crash_among(self, kind: str, ranks: Sequence[int]) -> Optional[FaultSpec]:
        """Return-and-consume a crash spec whose rank is in ``ranks``
        and whose superstep has arrived; ``None`` if the group is
        healthy."""
        for spec in self._pending_crashes:
            if spec.superstep <= self.superstep and self._matches(
                spec, kind, ranks
            ):
                self._pending_crashes.remove(spec)
                return spec
        return None

    def stragglers_for(self, kind: str, ranks: Sequence[int]) -> list[FaultSpec]:
        """Return-and-consume straggler specs firing on this collective."""
        fired = [
            s
            for s in self._pending_stragglers
            if s.superstep == self.superstep and self._matches(s, kind, ranks)
        ]
        for s in fired:
            self._pending_stragglers.remove(s)
        return fired

    def arrivals_for(self, superstep: int) -> list[FaultSpec]:
        """Return-and-consume spare-arrival (``recover``) specs due by
        ``superstep``.

        Spares arrive at BSP boundaries, not inside collectives.  ``<=`` rather than ``==``
        so an arrival scheduled for a superstep the run skipped (e.g.
        a restore rewound past it) is delivered at the next boundary
        instead of silently lost.
        """
        fired = [s for s in self._pending_recovers if s.superstep <= superstep]
        for s in fired:
            self._pending_recovers.remove(s)
        return fired

    def memflips_for(self, superstep: int) -> list[FaultSpec]:
        """Return-and-consume memory bit-flip (``memflip``) specs due by
        ``superstep``.

        They land before integrity verification, between the compute
        that produced the state and the ledger hash that should catch it.
        One-shot consumption is what keeps repair deterministic: a
        restore-and-recompute of the suspect window does not re-flip.
        """
        fired = [s for s in self._pending_memflips if s.superstep <= superstep]
        for s in fired:
            self._pending_memflips.remove(s)
        return fired

    def next_disruption(self, kind: str, ranks: Sequence[int]) -> Optional[FaultSpec]:
        """Consume one failure attempt for this collective, if planned.

        Returns the spec that disrupts this attempt (``transient`` or
        ``corruption``), or ``None`` when the attempt succeeds.  A spec
        with ``count=N`` disrupts N consecutive attempts.
        """
        for spec in self.plan:
            if spec.kind not in ("transient", "corruption"):
                continue
            if spec.superstep != self.superstep:
                continue
            if not self._matches(spec, kind, ranks):
                continue
            remaining = self._attempts.get(id(spec), 0)
            if remaining > 0:
                self._attempts[id(spec)] = remaining - 1
                return spec
        return None

    # ------------------------------------------------------------------
    # event recording
    # ------------------------------------------------------------------
    def record(self, event: FaultEvent) -> None:
        self.events.append(event)
