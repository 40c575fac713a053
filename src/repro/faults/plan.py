"""Deterministic fault plans (the simulator's fault model).

At the paper's target scale — 400 V100s across 67 AiMOS nodes, with
multi-hour WDC12 runs — rank crashes, flapping links, corrupted
payloads, and stragglers are operational facts, not edge cases.  The
simulator models them the same way it models time: as explicit,
deterministic events.  A :class:`FaultPlan` is a list of
:class:`FaultSpec` entries naming *what* goes wrong, *where* (rank),
and *when* (superstep); :class:`~repro.faults.injector.FaultInjector`
executes the plan against a run.

Determinism is the point: a plan is a hand-written list of specs
(every campaign row pins an exact scenario), and the same plan against
the same program produces the same fault schedule, the same retries,
and the same failure — which is what makes recovery *testable*.

Fault kinds
-----------
``crash``
    The rank dies.  The next collective involving it raises
    :class:`~repro.faults.injector.RankFailure`; recovery means
    restoring from a checkpoint (the spec is one-shot, modeling the
    crashed rank being replaced before the resumed run).
``transient``
    A collective fails ``count`` times before succeeding (link flap,
    NCCL timeout).  The communicator's guard retries with
    exponential backoff charged to the virtual clocks.
``corruption``
    The payload arrives with ``count`` bit flips' worth of damage —
    one flipped bit per attempt — detected by checksum mismatch and
    retransmitted like a transient failure.
``straggler``
    The rank stalls ``delay_s`` virtual seconds before the collective,
    gating the whole group (BSP semantics).
``recover``
    A *replacement* rank becomes available: ``count`` spare GPUs
    arrive at the superstep boundary.  Consumed by
    ``Engine.superstep_boundary`` (not by a collective) and handed to
    the attached autoscaler — an ``"autoscale"``
    :class:`~repro.faults.elastic.Recovery` decides whether the run
    grows back onto ``p+1`` ranks or holds.
``memflip``
    Silent data corruption in *device memory*: ``count`` bits flip in
    the target rank's registered state arrays at the superstep
    boundary — compute-side damage the communication checksum never
    sees.  Consumed by ``Engine.superstep_boundary`` before integrity
    verification; detection and repair belong to the attached
    :class:`~repro.faults.integrity.IntegrityLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..comm.collectives import COLLECTIVE_KINDS

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "FaultEvent"]

#: Recognized fault kinds, in documentation order.
FAULT_KINDS = (
    "crash", "transient", "corruption", "straggler", "recover", "memflip",
)

#: Kinds whose specs must name an explicit target rank.
_RANKED_KINDS = ("crash", "straggler", "memflip")


def _doc_order(kinds) -> str:
    """Render a subset of kinds in :data:`FAULT_KINDS` documentation
    order (validation messages quote choices in this order)."""
    return ", ".join(k for k in FAULT_KINDS if k in kinds)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    superstep:
        1-based BSP superstep (iteration) during which the fault fires.
    rank:
        Target rank; ``None`` matches any rank (the first collective of
        the superstep triggers it).  Crashes, stragglers, and memflips
        require an explicit rank.
    collective:
        Restrict to one collective kind, one of
        :data:`~repro.comm.collectives.COLLECTIVE_KINDS`
        (``"allreduce"``, ``"allgatherv"``, ...); ``None`` matches
        any.  Boundary faults
        (``recover``, ``memflip``) never match a collective.
    count:
        Failed attempts for ``transient``/``corruption`` (each retried
        with backoff; exceeding the communicator's retry budget turns
        the fault fatal), or bits flipped for ``memflip``.
    delay_s:
        Stall duration for ``straggler`` faults, in virtual seconds.
    bit:
        Bit index flipped by ``corruption`` faults (position within the
        payload's byte stream) and starting bit for ``memflip`` faults
        (position within the rank's state-array byte stream); wrapped
        to the target size in both cases.
    """

    kind: str
    superstep: int
    rank: Optional[int] = None
    collective: Optional[str] = None
    count: int = 1
    delay_s: float = 0.0
    bit: int = 0

    def __post_init__(self) -> None:
        # Every message names the offending field first; messages that
        # hinge on the fault kind quote the relevant choices in
        # FAULT_KINDS documentation order.
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind: unknown fault kind {self.kind!r}; choose from "
                f"{_doc_order(FAULT_KINDS)}"
            )
        if self.superstep < 1:
            raise ValueError(
                f"superstep: must be >= 1, got {self.superstep}"
            )
        if self.count < 1:
            raise ValueError(f"count: must be >= 1, got {self.count}")
        if self.bit < 0:
            raise ValueError(f"bit: must be >= 0, got {self.bit}")
        if self.kind == "straggler" and self.delay_s <= 0:
            raise ValueError(
                f"delay_s: straggler faults need delay_s > 0, "
                f"got {self.delay_s}"
            )
        if self.kind in _RANKED_KINDS and self.rank is None:
            raise ValueError(
                f"rank: {self.kind} faults need an explicit rank "
                f"(as do all of: {_doc_order(_RANKED_KINDS)})"
            )
        if self.kind == "recover" and self.rank is not None:
            # Spares are anonymous until adopted: the grown grid assigns
            # rank numbers, so a targeted recover spec is meaningless.
            raise ValueError(
                "rank: recover specs model anonymous spare arrivals; "
                "rank must be None"
            )
        if self.kind in ("recover", "memflip") and self.collective is not None:
            raise ValueError(
                f"collective: {self.kind} specs fire at the superstep "
                f"boundary, not inside a collective; collective must be "
                f"None (boundary kinds: {_doc_order(('recover', 'memflip'))})"
            )
        if self.collective is not None and self.collective not in COLLECTIVE_KINDS:
            raise ValueError(
                f"collective: unknown collective {self.collective!r}; "
                f"choose from {', '.join(COLLECTIVE_KINDS)}"
            )
        if self.rank is not None and self.rank < 0:
            raise ValueError(f"rank: must be >= 0, got {self.rank}")


@dataclass(frozen=True)
class FaultEvent:
    """One fault occurrence, as observed during a run.

    Events are what surfaces everywhere downstream: trace rows carry
    them per iteration, the ``faults`` CLI prints them, and
    :class:`~repro.faults.injector.RankFailure` embeds the fatal one.
    ``recovery_s`` is the virtual time the event cost (stall seconds or
    accumulated retry backoff); ``retries`` counts retransmission
    attempts; ``fatal`` marks the event that killed the run.  ``extra``
    holds what only one kind of event has (a health transition's status
    and score, a regrid's grids, ...), appended to the common fields by
    :meth:`as_dict`.
    """

    kind: str
    rank: Optional[int]
    superstep: int
    collective: str
    retries: int = 0
    recovery_s: float = 0.0
    detected: bool = True
    fatal: bool = False
    extra: dict = field(default_factory=dict, hash=False)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rank": self.rank,
            "superstep": self.superstep,
            "collective": self.collective,
            "retries": self.retries,
            "recovery_s": self.recovery_s,
            "detected": self.detected,
            "fatal": self.fatal,
            **self.extra,
        }


@dataclass
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` entries."""

    specs: list[FaultSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.specs = sorted(
            self.specs, key=lambda s: (s.superstep, FAULT_KINDS.index(s.kind))
        )

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)
