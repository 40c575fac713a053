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
    from .counters import CommCounters, CounterSnapshot

__all__ = ["InflightCollective", "PhaseTimes", "StageIndex", "VirtualClocks"]


@dataclass(frozen=True)
class PhaseTimes:
    """A (total, computation, communication) time triple in seconds.

    ``overlap`` (optional, default 0) annotates how much communication
    time was hidden behind computation by split-phase collectives; like
    the recovery/regrid lanes it is not an additional component of
    ``total`` — it is the part of ``comm`` that does *not* appear in
    ``total``.
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

    When ``counters`` is supplied, every :meth:`mark_iteration`
    additionally snapshots the counters, so per-iteration traffic can
    later be reconstructed *exactly* (consecutive-snapshot deltas sum
    to run totals by construction — the invariant
    :class:`~repro.core.trace.TraceRecorder` relies on).
    """

    def __init__(self, n_ranks: int, counters: Optional["CommCounters"] = None):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self.counters = counters
        self.clock = np.zeros(n_ranks)
        self.compute = np.zeros(n_ranks)
        self.comm = np.zeros(n_ranks)
        # Recovery lane: time spent on fault handling (straggler stalls,
        # retry backoff).  Always a subset annotation — stall seconds
        # land in the total only, retry seconds in comm as well — so
        # fault-free runs keep it at exactly zero.
        self.recovery = np.zeros(n_ranks)
        # Regrid lane: elastic-recovery migration cost (checkpoint
        # gather, re-partition, scatter onto the surviving grid).  Like
        # ``recovery`` it annotates time already contained in the total.
        self.regrid = np.zeros(n_ranks)
        # Overlap lane: communication seconds *hidden* behind
        # computation by split-phase collectives.  The inverse
        # annotation of recovery/regrid: hidden seconds are contained
        # in ``comm`` but NOT in the total (`total = compute + exposed
        # comm + idle`, and `exposed comm = comm - overlap`).  Blocking
        # runs keep it at exactly zero.
        self.overlap = np.zeros(n_ranks)
        # Certify lane: integrity-verification cost (ledger digest
        # exchanges at superstep boundaries, end-of-run result
        # certifiers).  Like recovery/regrid it annotates time already
        # contained in the total; runs without an attached ledger or
        # certification keep it at exactly zero.
        self.certify = np.zeros(n_ranks)
        self.iteration_marks: list[PhaseTimes] = []
        self.counter_marks: list["CounterSnapshot"] = []

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

    def charge_recovery(self, ranks: Sequence[int], seconds: float) -> None:
        """Charge fault-recovery time (retry backoff, retransmits) to a
        group.

        Semantically a failed collective attempt: the group
        synchronizes, burns ``seconds`` together, and the cost counts
        as communication time (it occupies the fabric) *and* is
        mirrored into the ``recovery`` lane so timing reports can show
        how much of the comm share was recovery overhead.
        """
        if seconds < 0:
            raise ValueError(f"negative recovery time {seconds}")
        idx = np.fromiter(ranks, dtype=np.int64)
        t = float(self.clock[idx].max()) + seconds
        self.clock[idx] = t
        self.comm[idx] += seconds
        self.recovery[idx] += seconds

    def charge_regrid(self, ranks: Sequence[int], seconds: float) -> None:
        """Charge elastic-migration time (checkpoint gather, graph
        re-partition, state scatter) to a group.

        Semantically a barrier followed by a bulk data movement on the
        surviving ranks: the group synchronizes, burns ``seconds``
        together, and the cost counts as communication time *and* is
        mirrored into the ``regrid`` lane so timing reports can show
        how much of a degraded run went to the migration itself.
        """
        if seconds < 0:
            raise ValueError(f"negative regrid time {seconds}")
        idx = np.fromiter(ranks, dtype=np.int64)
        t = float(self.clock[idx].max()) + seconds
        self.clock[idx] = t
        self.comm[idx] += seconds
        self.regrid[idx] += seconds

    def charge_certify(self, ranks: Sequence[int], seconds: float) -> None:
        """Charge integrity-verification time (ledger digest exchange,
        result certification) to a group.

        Semantically a small collective: the group synchronizes, burns
        ``seconds`` together, and the cost counts as communication time
        (digests and certification invariants cross the fabric) *and*
        is mirrored into the ``certify`` lane so timing reports can
        show what the SDC defense cost.
        """
        if seconds < 0:
            raise ValueError(f"negative certify time {seconds}")
        idx = np.fromiter(ranks, dtype=np.int64)
        t = float(self.clock[idx].max()) + seconds
        self.clock[idx] = t
        self.comm[idx] += seconds
        self.certify[idx] += seconds

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
        self.clock[:] = 0.0
        self.compute[:] = 0.0
        self.comm[:] = 0.0
        self.recovery[:] = 0.0
        self.regrid[:] = 0.0
        self.overlap[:] = 0.0
        self.certify[:] = 0.0
        self.iteration_marks.clear()
        self.counter_marks.clear()

    def barrier(self, ranks: Sequence[int] | None = None) -> None:
        """Synchronize without charging time."""
        idx = (
            np.arange(self.n_ranks)
            if ranks is None
            else np.fromiter(ranks, dtype=np.int64)
        )
        self.clock[idx] = self.clock[idx].max()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> PhaseTimes:
        """Current (max-over-ranks) total/compute/comm times."""
        return PhaseTimes(
            total=float(self.clock.max()),
            compute=float(self.compute.max()),
            comm=float(self.comm.max()),
            overlap=float(self.overlap.max()),
        )

    def mark_iteration(self) -> PhaseTimes:
        """Record an iteration boundary; returns the delta since the
        previous mark (or since start).

        With counters attached, also snapshots them so the boundary
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
            self.counter_marks.append(self.counters.snapshot())
        return now - prev

    def per_rank_lanes(self) -> dict[str, np.ndarray]:
        """Per-rank copies of every lane, keyed by lane name.

        The sampling surface of the rank-health watchdog
        (:class:`~repro.faults.health.HealthMonitor`): consecutive
        samples at superstep boundaries diff into per-rank progress
        deltas, from which deviation scores are computed.  Copies, so a
        held sample is immune to subsequent charging.
        """
        return {
            "clock": self.clock.copy(),
            "compute": self.compute.copy(),
            "comm": self.comm.copy(),
            "recovery": self.recovery.copy(),
            "regrid": self.regrid.copy(),
            "overlap": self.overlap.copy(),
            "certify": self.certify.copy(),
        }

    @property
    def elapsed(self) -> float:
        return float(self.clock.max())

    @property
    def recovery_total(self) -> float:
        """Max-over-ranks recovery time (0.0 in fault-free runs)."""
        return float(self.recovery.max())

    @property
    def regrid_total(self) -> float:
        """Max-over-ranks elastic-migration time (0.0 unless the run
        regridded onto a surviving grid)."""
        return float(self.regrid.max())

    @property
    def overlap_total(self) -> float:
        """Max-over-ranks hidden communication time (0.0 in blocking
        runs)."""
        return float(self.overlap.max())

    @property
    def certify_total(self) -> float:
        """Max-over-ranks integrity-verification time (0.0 in runs
        without a ledger or certification)."""
        return float(self.certify.max())

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Plain-data snapshot of the full clock state.

        Everything is copied (marks flatten to tuples, counter
        snapshots to nested dicts); :meth:`load_state` restores
        bit-identically.
        """
        return {
            "clock": self.clock.copy(),
            "compute": self.compute.copy(),
            "comm": self.comm.copy(),
            "recovery": self.recovery.copy(),
            "regrid": self.regrid.copy(),
            "overlap": self.overlap.copy(),
            "certify": self.certify.copy(),
            "iteration_marks": [
                (m.total, m.compute, m.comm, m.overlap)
                for m in self.iteration_marks
            ],
            "counter_marks": [c.as_state() for c in self.counter_marks],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place (identity is
        preserved, as in :meth:`reset`)."""
        from .counters import CounterSnapshot

        self.clock[:] = state["clock"]
        self.compute[:] = state["compute"]
        self.comm[:] = state["comm"]
        self.recovery[:] = state["recovery"]
        self.regrid[:] = state["regrid"]
        self.overlap[:] = state["overlap"]
        self.certify[:] = state["certify"]
        self.iteration_marks[:] = [
            PhaseTimes(*t) for t in state["iteration_marks"]
        ]
        self.counter_marks[:] = [
            CounterSnapshot.from_state(s) for s in state["counter_marks"]
        ]

    @staticmethod
    def align_state(state: dict, n_ranks: int) -> dict:
        """Re-shape a :meth:`state_dict` snapshot onto ``n_ranks``.

        Used by elastic recovery when a run migrates to a differently
        sized grid: the survivors rendezvous at the last BSP boundary,
        so each lane collapses to its max-over-ranks value replicated
        across the new rank count (the max is exactly what every
        report and every subsequent ``sync_group`` observes).  Marks
        and counter snapshots are rank-agnostic and pass through.
        """
        out = dict(state)
        for lane in ("clock", "compute", "comm", "recovery", "regrid",
                     "overlap", "certify"):
            arr = np.asarray(state.get(lane, [0.0]), dtype=np.float64)
            peak = float(arr.max()) if arr.size else 0.0
            out[lane] = np.full(n_ranks, peak)
        return out
