"""Fault injection state machine.

The :class:`FaultInjector` walks a :class:`~repro.faults.plan.FaultPlan`
alongside the run: the engine advances its superstep counter at every
BSP boundary (``Engine.superstep_boundary``) and the engine's
:class:`~repro.comm.collectives.Communicator` calls :meth:`guard`
before every collective.  The guard asks three questions —

* :meth:`crash_among` — is a crashed rank in this group?  (Crashes
  persist from their superstep onward and fire on the *first*
  collective that touches the dead rank; the spec is then consumed, so
  a restored-from-checkpoint rerun with the same injector models a
  replaced rank rather than an eternally crashing one.)
* :meth:`stragglers_for` — which group members must stall first?
* :meth:`next_disruption` — does this attempt fail (transient or
  corruption)?  Each call consumes one planned failure attempt, so a
  ``count=2`` transient fails twice then succeeds.

and runs the fault protocol on the answers:

1. **Crash check.**  A crashed rank in the group raises
   :class:`RankFailure` immediately (a dead peer cannot participate);
   the engine's checkpoint/restore machinery is the recovery path.
2. **Straggler stalls.**  Scheduled stalls advance the straggling
   rank's clock before the collective, so the whole group waits on it.
3. **Attempt loop.**  A *transient* disruption simply fails; a
   *corruption* disruption flips a bit in a scratch copy of the payload
   and is detected by a CRC32 mismatch — end-to-end payload
   verification, not oracle knowledge.  Every failed attempt charges
   exponential-backoff recovery time to the group's clocks; exceeding
   :attr:`FaultInjector.max_retries` escalates to :class:`RankFailure`.

Retries deliberately do **not** inflate ``CommCounters`` — the counters
feed the paper's message-complexity claims, which describe the
algorithm, not the weather; retry cost shows in the clocks'
``recovery`` lane and in the recorded events.

Everything the injector observes lands in :attr:`events` as
:class:`~repro.faults.plan.FaultEvent` rows, which the engine exposes
(``Engine.fault_events``) and the trace recorder attaches to iteration
rows.
"""

from __future__ import annotations

import zlib
from typing import Optional, Sequence

import numpy as np

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
    autoscaling :class:`~repro.faults.elastic.Recovery` decided draining
    it beats dragging the whole BSP group.  Subclassing
    :class:`RankFailure` means :meth:`Recovery.recover` handles a
    demotion exactly like a crash, except it is raised at a superstep
    boundary (so the checkpoint saved at that boundary is current:
    nothing recomputes).
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

    Raised by the attached autoscaler (an ``"autoscale"``
    :class:`~repro.faults.elastic.Recovery`) at a superstep boundary
    when a planned ``recover`` spec has delivered a spare *and* its
    gate (once per run, hysteresis, cooldown) decided adoption beats
    holding.  Not an error — ``drive_elastic`` catches it and hands it
    to :meth:`Recovery.grow`.
    """

    def __init__(self, superstep: int, pending: int = 1):
        self.superstep = superstep
        self.pending = pending
        super().__init__(
            f"spare rank available at superstep {superstep} "
            f"({pending} pending)"
        )


def _payload_checksum(arrays: Sequence[np.ndarray]) -> int:
    """CRC32 over the byte stream of a collective's payload."""
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return crc


def _flip_bit(arrays: Sequence[np.ndarray], bit: int) -> list[np.ndarray]:
    """Copy the payload and flip one bit (wrapped to the total size)."""
    copies = [np.ascontiguousarray(a).copy() for a in arrays]
    total_bits = sum(c.nbytes for c in copies) * 8
    if total_bits == 0:
        return copies
    bit = bit % total_bits
    for c in copies:
        nbits = c.nbytes * 8
        if bit < nbits:
            flat = c.view(np.uint8).reshape(-1)
            flat[bit // 8] ^= np.uint8(1 << (bit % 8))
            break
        bit -= nbits
    return copies


class FaultInjector(BoundaryHook):
    """Executes a :class:`FaultPlan` against a running engine.

    It tracks the current superstep, matches specs to collectives,
    consumes one-shot specs exactly once, and runs the fault protocol
    as the engine communicator's guard (:meth:`guard`).

    As a boundary hook it fires twice: planned memflips land in the
    ``inject`` phase (before anything verifies or saves the state), and
    planned spares are delivered in the ``arrivals`` phase, after which
    the run is inside the next superstep.
    """

    slot = "faults"
    phases = ("inject", "arrivals")

    #: per-attempt base backoff, in virtual seconds (doubles each retry)
    backoff_base_s = 1e-4

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: Retry budget of every collective guarded on the engines this
        #: injector is attached to (``Engine.attach_faults``).
        self.max_retries = 4
        self.events: list[FaultEvent] = []
        self.reset()

    # ------------------------------------------------------------------
    # engine hooks (see repro.core.hooks)
    # ------------------------------------------------------------------
    def on_attach(self, engine) -> None:
        engine.comm.guard = self.guard

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
        # crash specs become "armed" at their superstep and stay armed
        # until consumed by the first collective touching their rank
        self._pending_crashes = [s for s in self.plan if s.kind == "crash"]
        # remaining failure attempts per transient/corruption spec
        self._attempts = {
            id(s): s.count for s in self.plan if s.kind in ("transient", "corruption")
        }
        # stragglers fire once, on the first matching collective
        self._pending_stragglers = [s for s in self.plan if s.kind == "straggler"]
        # spare arrivals and memory bit-flips are consumed at superstep
        # boundaries
        self._pending_recovers = [s for s in self.plan if s.kind == "recover"]
        self._pending_memflips = [s for s in self.plan if s.kind == "memflip"]

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
    # the guard (``Communicator.guard``) and its queries
    # ------------------------------------------------------------------
    def guard(self, clocks, kind: str, ranks: Sequence[int], payload) -> None:
        """Run the fault protocol for one collective launch.

        Raises :class:`RankFailure` on a crash or an exhausted retry
        budget; returns normally when the collective may proceed.
        """
        step = self.superstep

        crash = self.crash_among(kind, ranks)
        if crash is not None:
            self.record(FaultEvent("crash", crash.rank, step, kind, fatal=True))
            raise RankFailure(crash.rank, step, kind, fault_kind="crash")

        for spec in self.stragglers_for(kind, ranks):
            clocks.add_stall(spec.rank, spec.delay_s)
            self.record(
                FaultEvent("straggler", spec.rank, step, kind, recovery_s=spec.delay_s)
            )

        attempt = 0
        while True:
            spec = self.next_disruption(kind, ranks)
            if spec is None:
                return
            attempt += 1
            detected = True
            if spec.kind == "corruption":
                # Real detection: flip a bit in a scratch copy of the
                # payload and compare checksums.  (A flip the checksum
                # misses would be silent corruption — CRC32 catches
                # every single-bit flip, so detected is always True
                # here, but the machinery is honest about *how*.)
                clean = _payload_checksum(payload)
                damaged = _payload_checksum(_flip_bit(payload, spec.bit))
                detected = damaged != clean or not payload
            backoff = self.backoff_base_s * (2 ** (attempt - 1))
            clocks.charge("recovery", ranks, backoff)
            fatal = attempt > self.max_retries
            self.record(
                FaultEvent(
                    spec.kind, spec.rank, step, kind, retries=attempt,
                    recovery_s=backoff, detected=detected, fatal=fatal,
                )
            )
            if fatal:
                raise RankFailure(
                    spec.rank, step, kind, fault_kind=spec.kind, retries=attempt
                )

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
