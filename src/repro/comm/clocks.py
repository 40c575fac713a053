"""Per-rank virtual clocks for BSP time accounting.

Every rank carries a virtual clock.  Local kernels advance only that
rank's clock; a collective synchronizes the participating group to the
*maximum* clock in the group (stragglers gate everyone — the BSP
model the paper uses) and then advances all members by the modeled
collective time.  Reported times follow the paper's convention: the
maximum over all ranks (paper §5.1: "reported as the maximum time over
all ranks"), with computation and communication tracked separately
(paper Figs. 3 and 5 plot the split).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .counters import CommCounters

__all__ = ["InflightCollective", "LANES", "PhaseTimes", "StageIndex", "VirtualClocks"]

#: The per-rank lanes of :class:`VirtualClocks`, in table-row order.
#: ``clock`` is each rank's time; ``compute`` and ``comm`` split it.
#: The other four annotate it and are exactly zero when their feature
#: is off:
#:
#: * ``recovery`` — fault handling: straggler stalls (in ``clock``
#:   only) and retry backoff (in ``comm`` as well);
#: * ``regrid`` — elastic migration (checkpoint gather, re-partition,
#:   scatter onto the new grid), contained in ``comm``;
#: * ``overlap`` — comm seconds *hidden* behind compute by split-phase
#:   collectives: contained in ``comm`` but NOT in ``clock``
#:   (exposed comm = ``comm - overlap``);
#: * ``certify`` — integrity verification (ledger digest exchanges,
#:   result certifiers), contained in ``comm``.
LANES = ("clock", "compute", "comm", "recovery", "regrid", "overlap", "certify")


@dataclass(frozen=True)
class PhaseTimes:
    """A (total, computation, communication) time triple in seconds.

    ``overlap`` (optional, default 0) annotates how much communication
    time was hidden behind computation by split-phase collectives: the
    part of ``comm`` that does *not* appear in ``total`` (see
    :data:`LANES`).
    """

    total: float
    compute: float
    comm: float
    overlap: float = 0.0

    def __sub__(self, other: "PhaseTimes") -> "PhaseTimes":
        return PhaseTimes(
            total=self.total - other.total,
            compute=self.compute - other.compute,
            comm=self.comm - other.comm,
            overlap=self.overlap - other.overlap,
        )


@dataclass
class InflightCollective:
    """Clock-side record of one issued-but-uncompleted collective.

    Created by :meth:`VirtualClocks.issue_collective`; consumed exactly
    once by :meth:`VirtualClocks.complete_collective`.  ``issued_at`` is
    the group-max clock at issue (the moment the last member's send
    buffer was ready); ``comm_seconds`` is the modeled cost the
    collective would charge if it ran blocking.
    """

    idx: np.ndarray
    issued_at: float
    comm_seconds: float
    completed: bool = False


class StageIndex(NamedTuple):
    """One stage's disjoint groups, concatenated: ``idx[i]`` is a rank
    of group ``group[i]``, whose ranks start at ``starts[group[i]]``."""

    idx: np.ndarray
    starts: np.ndarray
    group: np.ndarray

    @classmethod
    def of(cls, groups: Sequence[Sequence[int]]) -> "StageIndex":
        """Raises unless the groups are non-empty and disjoint (a rank
        repeated *within* a group is one participant, as in sync_group)."""
        owner: dict[int, int] = {}
        for g, ranks in enumerate(groups):
            if not len(ranks) or any(owner.setdefault(r, g) != g for r in ranks):
                raise ValueError(f"stage groups must be disjoint, none empty: {groups}")
        sizes = np.array([len(ranks) for ranks in groups], dtype=np.int64)
        idx = np.array([r for ranks in groups for r in ranks], dtype=np.int64)
        group = np.repeat(np.arange(sizes.size), sizes)
        return cls(idx, np.cumsum(sizes) - sizes, group)


class VirtualClocks:
    """Virtual time state for ``n_ranks`` simulated ranks.

    The lanes are one ``(len(LANES), n_ranks)`` table, ``lanes``; each
    lane is also a named row view (``clocks.comm`` is ``lanes[2]``).

    When ``counters`` is supplied, every :meth:`mark_iteration`
    additionally copies their :meth:`~repro.comm.counters.CommCounters.state_dict`,
    so per-iteration traffic can later be reconstructed *exactly*
    (consecutive marks' deltas sum to run totals by construction — the
    invariant :class:`~repro.core.trace.TraceRecorder` relies on).
    """

    def __init__(self, n_ranks: int, counters: Optional["CommCounters"] = None):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self.counters = counters
        self.lanes = np.zeros((len(LANES), n_ranks))
        for name, row in zip(LANES, self.lanes):
            setattr(self, name, row)
        self.iteration_marks: list[PhaseTimes] = []
        #: ``counters.state_dict()`` at each mark; never mutated.
        self.counter_marks: list[dict] = []

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def add_compute(self, rank: int, seconds: float) -> None:
        """Advance one rank's clock by local kernel time."""
        if seconds < 0:
            raise ValueError(f"negative compute time {seconds}")
        self.clock[rank] += seconds
        self.compute[rank] += seconds

    def add_compute_all(self, seconds: np.ndarray) -> None:
        """:meth:`add_compute` for every rank at once: ``seconds[r]`` of
        local kernel time on rank ``r`` (the same two float adds per
        rank, as one vector update)."""
        if seconds.shape != self.clock.shape:
            raise ValueError(
                f"need one compute time per rank ({self.n_ranks}), "
                f"got shape {seconds.shape}"
            )
        if np.any(seconds < 0):
            raise ValueError(f"negative compute time in {seconds}")
        self.clock += seconds
        self.compute += seconds

    def sync_group(self, ranks: Sequence[int], seconds: float) -> None:
        """Synchronize a group and charge a collective of ``seconds``.

        All members first wait for the slowest member, then advance
        together; the collective duration is attributed to
        communication time.  (Wait time is attributed to neither — it
        is idle time, which the max-over-ranks report absorbs.)
        """
        if seconds < 0:
            raise ValueError(f"negative comm time {seconds}")
        idx = np.fromiter(ranks, dtype=np.int64)
        t = float(self.clock[idx].max()) + seconds
        self.clock[idx] = t
        self.comm[idx] += seconds

    def sync_stage(self, stage: StageIndex, seconds: Sequence[float]) -> None:
        """:meth:`sync_group` of each group ``g`` of a stage, charged
        ``seconds[g]``, at once: the groups are disjoint, so this is the
        per-group sequence bit for bit (same max, same two float ops)."""
        if len(seconds) != stage.starts.size or min(seconds, default=0.0) < 0:
            raise ValueError(f"need one comm time >= 0 per group, got {seconds}")
        secs = np.array(seconds, dtype=np.float64)
        t = np.maximum.reduceat(self.clock[stage.idx], stage.starts) + secs
        self.clock[stage.idx] = t[stage.group]
        self.comm[stage.idx] += secs[stage.group]

    def add_stall(self, rank: int, seconds: float) -> None:
        """Idle one rank for ``seconds`` (an injected straggler delay).

        Stall time advances the rank's clock — so it gates the next
        collective the rank participates in, exactly like a real
        straggler — but is attributed to neither compute nor comm; the
        ``recovery`` lane records it so fault reports can expose it.
        """
        if seconds < 0:
            raise ValueError(f"negative stall time {seconds}")
        self.clock[rank] += seconds
        self.recovery[rank] += seconds

    def charge(self, lane: str, ranks: Sequence[int], seconds: float) -> None:
        """Charge a group ``seconds`` of overhead that ``lane`` annotates:
        ``"recovery"`` (retry backoff), ``"regrid"`` (elastic migration)
        or ``"certify"`` (integrity verification).

        The group synchronizes and burns ``seconds`` together as
        communication time (:meth:`sync_group`: the overhead occupies
        the fabric), mirrored into ``lane`` so timing reports can show
        how much of the comm share it was.
        """
        if lane not in ("recovery", "regrid", "certify"):
            raise ValueError(f"cannot charge lane {lane!r}")
        idx = np.fromiter(ranks, dtype=np.int64)
        self.sync_group(idx, seconds)
        getattr(self, lane)[idx] += seconds

    def issue_collective(
        self, ranks: Sequence[int], comm_seconds: float
    ) -> InflightCollective:
        """Issue a split-phase collective: barrier the group, charge
        nothing yet.

        The group synchronizes to its maximum clock — the collective
        cannot start before the last member's send buffer is ready,
        exactly the implicit barrier a blocking ``sync_group`` performs
        — and the exchange is considered *in flight* from that instant.
        Time is charged at :meth:`complete_collective`.
        """
        if comm_seconds < 0:
            raise ValueError(f"negative comm time {comm_seconds}")
        idx = np.fromiter(ranks, dtype=np.int64)
        t = float(self.clock[idx].max())
        self.clock[idx] = t
        return InflightCollective(idx=idx, issued_at=t, comm_seconds=comm_seconds)

    def complete_collective(self, inflight: InflightCollective) -> float:
        """Complete an issued collective; returns the hidden seconds.

        The overlapped window spans from issue to now.  Any compute the
        participants charged inside the window runs concurrently with
        the exchange, so the group's clocks land at ``issued_at +
        max(compute_elapsed, comm_cost)``.  The full ``comm_cost`` is
        charged to the ``comm`` lane — identical to a blocking run —
        while ``min(compute_elapsed, comm_cost)``, the part of the cost
        the window absorbed, is recorded in the ``overlap`` lane.  A
        wait immediately after issue (``compute_elapsed == 0``)
        degenerates to exactly :meth:`sync_group`.
        """
        if inflight.completed:
            raise ValueError("collective already completed")
        inflight.completed = True
        idx = inflight.idx
        elapsed = float(self.clock[idx].max()) - inflight.issued_at
        hidden = min(elapsed, inflight.comm_seconds)
        self.clock[idx] = inflight.issued_at + max(elapsed, inflight.comm_seconds)
        self.comm[idx] += inflight.comm_seconds
        self.overlap[idx] += hidden
        return hidden

    def reset(self) -> None:
        """Zero all clocks and drop marks, preserving identity.

        In-place so that every holder of this object (``Communicator``,
        ``TraceRecorder``, callers) observes the reset.
        """
        self.lanes[:] = 0.0
        self.iteration_marks.clear()
        self.counter_marks.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def peak(self, lane: str) -> float:
        """Max-over-ranks value of one lane (the paper's report)."""
        return float(getattr(self, lane).max())

    def snapshot(self) -> PhaseTimes:
        """Current (max-over-ranks) total/compute/comm times."""
        return PhaseTimes(*map(self.peak, ("clock", "compute", "comm", "overlap")))

    def mark_iteration(self) -> PhaseTimes:
        """Record an iteration boundary; returns the delta since the
        previous mark (or since start).

        With counters attached, also copies them so the boundary
        carries the exact cumulative traffic at this point.
        """
        now = self.snapshot()
        prev = (
            self.iteration_marks[-1]
            if self.iteration_marks
            else PhaseTimes(0.0, 0.0, 0.0)
        )
        self.iteration_marks.append(now)
        if self.counters is not None:
            self.counter_marks.append(self.counters.state_dict())
        return now - prev

    def per_rank_lanes(self) -> dict[str, np.ndarray]:
        """Per-rank copies of every lane, keyed by lane name.

        The sampling surface of the rank-health watchdog
        (:class:`~repro.faults.health.HealthMonitor`): consecutive
        samples at superstep boundaries diff into per-rank progress
        deltas, from which deviation scores are computed.  Copies, so a
        held sample is immune to subsequent charging.
        """
        return dict(zip(LANES, self.lanes.copy()))

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Plain-data snapshot of the full clock state.

        The lanes are copied and marks flatten to tuples (counter marks
        are plain dicts that nothing mutates); :meth:`load_state`
        restores bit-identically.
        """
        return {
            **self.per_rank_lanes(),
            "iteration_marks": [
                (m.total, m.compute, m.comm, m.overlap)
                for m in self.iteration_marks
            ],
            "counter_marks": list(self.counter_marks),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place (identity is
        preserved, as in :meth:`reset`)."""
        for row, lane in zip(self.lanes, LANES):
            row[:] = state[lane]
        self.iteration_marks[:] = [
            PhaseTimes(*t) for t in state["iteration_marks"]
        ]
        self.counter_marks[:] = state["counter_marks"]

    @staticmethod
    def align_state(state: dict, n_ranks: int) -> dict:
        """Re-shape a :meth:`state_dict` snapshot onto ``n_ranks``.

        Used by elastic recovery when a run migrates to a differently
        sized grid: the survivors rendezvous at the last BSP boundary,
        so each lane collapses to its max-over-ranks value replicated
        across the new rank count (the max is exactly what every
        report and every subsequent ``sync_group`` observes).  Marks
        and counter marks are rank-agnostic and pass through.
        """
        out = dict(state)
        for lane in LANES:
            arr = np.asarray(state.get(lane, [0.0]), dtype=np.float64)
            peak = float(arr.max()) if arr.size else 0.0
            out[lane] = np.full(n_ranks, peak)
        return out
