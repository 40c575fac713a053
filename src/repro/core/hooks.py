"""The superstep-boundary pipeline: phase order and hook protocol.

BSP gives the engine exactly one place where anything other than the
algorithm may act: the superstep boundary.  Everything that acts there
— fault injection, integrity verification, checkpointing, the health
watchdog, the autoscaler (all in :mod:`repro.faults`) — is a
:class:`BoundaryHook` attached to the :class:`~repro.core.engine.Engine`.
A hook declares the phases it fires in; the engine fires attached hooks
phase by phase in :data:`BOUNDARY_PHASES` order, whatever order they
were attached in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["BOUNDARY_PHASES", "Boundary", "BoundaryHook"]

#: Boundary phases, in firing order.  The order is the contract:
#: planned memflips land first (``inject`` — corruption strikes between
#: the compute that produced the state and the hash that should catch
#: it); state is verified (``verify``) *before* it is checkpointed
#: (``checkpoint``), so corrupt state is never saved; spares are
#: delivered (``arrivals``) and progress sampled (``observe``) before
#: the autoscaler decides (``decide``) — *after* the checkpoint, so a
#: demotion or grow drains from the checkpoint of this very boundary
#: and the resumed run recomputes nothing.
BOUNDARY_PHASES = (
    "inject", "verify", "checkpoint", "arrivals", "observe", "decide",
)


@dataclass
class Boundary:
    """One superstep boundary, as the hooks see it."""

    #: 1-based superstep that just ended.
    superstep: int
    #: The algorithm's checkpoint tag, and a zero-argument callable
    #: returning its grid-independent loop state, called only by a
    #: checkpoint that saves (``None`` when the algorithm is not
    #: resume-capable: nothing to checkpoint).
    algo: str
    state: Optional[Callable[[], dict]]
    #: Spare ranks delivered by this boundary's ``arrivals`` phase, for
    #: the ``decide`` phase to act on.
    spares_arrived: int = 0


class BoundaryHook:
    """Something attached to an engine's superstep boundary.

    ``slot`` names the hook's place on the engine (one hook per slot;
    attaching another replaces it) and ``phases`` the subset of
    :data:`BOUNDARY_PHASES` it fires in.  Besides the boundary a hook
    may react to being attached (which includes every
    ``Engine.rebuild_on_grid`` generation: hooks follow the run onto the
    new grid), to ``Engine.restore`` and to ``Engine.reset_timers``;
    the defaults do nothing.
    """

    slot: str = ""
    phases: tuple[str, ...] = ()

    def on_phase(self, phase: str, engine, boundary: Boundary) -> None:
        raise NotImplementedError

    def on_attach(self, engine) -> None:
        """Attached to ``engine`` (first attach or a rebuilt engine)."""

    def on_restore(self, engine, ckpt) -> None:
        """``engine`` was just restored from checkpoint ``ckpt``."""

    def on_reset(self, engine) -> None:
        """``engine.reset_timers()``: a fresh run starts."""
