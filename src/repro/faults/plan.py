"""Deterministic fault plans (the simulator's fault model).

At the paper's target scale — 400 V100s across 67 AiMOS nodes, with
multi-hour WDC12 runs — rank crashes, flapping links, corrupted
payloads, and stragglers are operational facts, not edge cases.  The
simulator models them the same way it models time: as explicit,
deterministic events.  A :class:`FaultPlan` is a list of
:class:`FaultSpec` entries naming *what* goes wrong, *where* (rank),
and *when* (superstep); :class:`~repro.faults.injector.FaultInjector`
executes the plan against a run.

Determinism is the point: a plan is either hand-written (tests pin
exact scenarios) or drawn from a seeded generator
(:meth:`FaultPlan.random`), and the same plan against the same program
produces the same fault schedule, the same retries, and the same
failure — which is what makes recovery *testable*.

Fault kinds
-----------
``crash``
    The rank dies.  The next collective involving it raises
    :class:`~repro.faults.injector.RankFailure`; recovery means
    restoring from a checkpoint (the spec is one-shot, modeling the
    crashed rank being replaced before the resumed run).
``transient``
    A collective fails ``count`` times before succeeding (link flap,
    NCCL timeout).  The resilient communicator retries with
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
    the attached autoscaler — an
    :class:`~repro.faults.health.AutoscalePolicy` decides whether the
    run grows back onto ``p+1`` ranks or holds.
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
from typing import Iterator, Optional, Sequence

import numpy as np

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
        Restrict to one collective kind (``"allreduce"``,
        ``"allgatherv"``, ...); ``None`` matches any.  Boundary faults
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
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.specs = sorted(
            self.specs, key=lambda s: (s.superstep, FAULT_KINDS.index(s.kind))
        )

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    @classmethod
    def random(
        cls,
        seed: int,
        n_supersteps: int,
        n_ranks: int,
        crash_rate: float = 0.0,
        transient_rate: float = 0.1,
        corruption_rate: float = 0.05,
        straggler_rate: float = 0.1,
        straggler_delay_s: float = 1e-3,
        max_crashes: int = 1,
        memflip_rate: float = 0.0,
    ) -> "FaultPlan":
        """Draw a plan from a seeded generator (same seed, same plan).

        Rates are per-superstep Bernoulli probabilities; each drawn
        fault picks a uniform random rank (and bit, for corruption and
        memflip).
        Crashes are capped at ``max_crashes`` — each one ends a run, so
        more than a couple makes a scenario unfinishable even with
        checkpoints at every boundary.
        """
        if n_supersteps < 0:
            raise ValueError(
                f"n_supersteps must be >= 0, got {n_supersteps}"
            )
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        rates = {
            "crash_rate": crash_rate,
            "transient_rate": transient_rate,
            "corruption_rate": corruption_rate,
            "straggler_rate": straggler_rate,
            "memflip_rate": memflip_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {rate}"
                )
        if straggler_rate > 0 and straggler_delay_s <= 0:
            raise ValueError(
                f"straggler_delay_s must be > 0 when straggler_rate > 0, "
                f"got {straggler_delay_s}"
            )
        if max_crashes < 0:
            raise ValueError(f"max_crashes must be >= 0, got {max_crashes}")
        rng = np.random.default_rng(seed)
        specs: list[FaultSpec] = []
        crashes = 0
        for step in range(1, n_supersteps + 1):
            if crashes < max_crashes and rng.random() < crash_rate:
                specs.append(
                    FaultSpec("crash", step, rank=int(rng.integers(n_ranks)))
                )
                crashes += 1
            if rng.random() < transient_rate:
                specs.append(
                    FaultSpec(
                        "transient",
                        step,
                        count=int(rng.integers(1, 3)),
                    )
                )
            if rng.random() < corruption_rate:
                specs.append(
                    FaultSpec(
                        "corruption",
                        step,
                        bit=int(rng.integers(0, 64)),
                    )
                )
            if rng.random() < straggler_rate:
                specs.append(
                    FaultSpec(
                        "straggler",
                        step,
                        rank=int(rng.integers(n_ranks)),
                        delay_s=float(straggler_delay_s * (1 + rng.random())),
                    )
                )
            if rng.random() < memflip_rate:
                specs.append(
                    FaultSpec(
                        "memflip",
                        step,
                        rank=int(rng.integers(n_ranks)),
                        bit=int(rng.integers(0, 4096)),
                    )
                )
        return cls(specs=specs, seed=seed)

    def for_superstep(self, superstep: int) -> list[FaultSpec]:
        """Specs scheduled exactly at ``superstep`` (crashes are
        handled separately: they persist from their superstep on)."""
        return [s for s in self.specs if s.superstep == superstep]

    def describe(self) -> str:
        """Human-readable one-line-per-spec rendering."""
        if not self.specs:
            return "(no faults planned)"
        lines = []
        for s in self.specs:
            where = f"rank {s.rank}" if s.rank is not None else "any rank"
            what = {
                "crash": "crash",
                "transient": f"{s.count}x transient failure",
                "corruption": f"bit {s.bit} flip",
                "straggler": f"stall {s.delay_s * 1e3:.3f} ms",
                "recover": f"{s.count} spare rank(s) arrive",
                "memflip": f"{s.count} state bit(s) flip from bit {s.bit}",
            }[s.kind]
            coll = f" on {s.collective}" if s.collective else ""
            lines.append(f"superstep {s.superstep}: {what} at {where}{coll}")
        return "\n".join(lines)
