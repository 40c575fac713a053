"""NCCL-like collectives over simulated ranks.

Each operation *really* moves/reduces NumPy data between per-rank
buffers — so algorithm results are exact — while charging virtual time
from the :class:`~repro.cluster.costmodel.CostModel` and recording
message/byte counters.  Buffers are typically views into per-rank state
arrays, so in-place assignment updates rank state directly, the way an
NCCL collective writes into device memory.

Supported reduction ops mirror what the paper's patterns need: ``sum``,
``min``, ``max``, ``prod``, plus ``or``/``and`` on boolean state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..cluster.costmodel import CostModel
from .clocks import InflightCollective, StageIndex, VirtualClocks
from .counters import CommCounters

__all__ = [
    "BroadcastCall", "COLLECTIVE_KINDS", "CollectiveHandle", "Communicator", "REDUCE_OPS",
    "rank_major",
]

#: The kinds a :class:`Communicator` passes its guard, one per
#: collective (a stage, split-phase or per-group call guards as its
#: kind); ``FaultSpec.collective`` names one of these.
COLLECTIVE_KINDS = (
    "allreduce", "broadcast", "grouped_broadcast", "allgatherv", "alltoallv",
)

REDUCE_OPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sum": lambda stacked: np.add.reduce(stacked, axis=0),
    "min": lambda stacked: np.minimum.reduce(stacked, axis=0),
    "max": lambda stacked: np.maximum.reduce(stacked, axis=0),
    "prod": lambda stacked: np.multiply.reduce(stacked, axis=0),
    "or": lambda stacked: np.logical_or.reduce(stacked, axis=0),
    "and": lambda stacked: np.logical_and.reduce(stacked, axis=0),
}


@dataclass
class BroadcastCall:
    """One broadcast: a stage's per-group call, or one of an aggregated
    NCCL group call's.

    ``src`` is the root's payload; ``dests`` are the destination views
    (one per non-root group member) that receive a copy.
    """

    src: np.ndarray
    dests: list[np.ndarray]


@dataclass
class CollectiveHandle:
    """An in-flight split-phase collective (see ``start_*`` methods).

    ``result`` holds the simulated payload — data movement happens
    eagerly at issue so results stay bit-identical to the blocking
    path.  A real split-phase collective delivers it incrementally
    (segment by segment along the ring), so a consumer that reads
    ``result`` before :meth:`Communicator.wait` returns it models a
    pipelined receive-and-apply and must therefore process it in a
    segment-order-independent way (element-wise reductions and
    assignments qualify; see docs/MODEL.md).  Time is charged only at
    ``wait``, where the guard checks ``payload``: the buffers of an
    AllReduce, the received data otherwise.
    """

    kind: str
    ranks: tuple[int, ...]
    inflight: InflightCollective
    result: object = None
    payload: Sequence[np.ndarray] = ()


def rank_major(buffers: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank send buffers (``buffers[r]`` is rank ``r``'s) as the
    rank-major send data and per-rank counts of
    :meth:`Communicator.allgatherv_stage`; one dtype across them."""
    Communicator._check_dtypes(range(len(buffers)), buffers)
    counts = np.fromiter((len(b) for b in buffers), np.int64, len(buffers))
    return _join([np.asarray(b) for b in buffers]), counts


def _join(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate arrays of one (checked) dtype as raw bytes:
    ``np.concatenate`` copies a structured dtype field by field, an
    order of magnitude slower.  Empty arrays are skipped (all empty:
    the first one's empty copy)."""
    dtype = arrays[0].dtype
    raw = np.dtype((np.void, dtype.itemsize))
    parts = [a for a in arrays if len(a)] or arrays[:1]
    return np.concatenate([a.view(raw) for a in parts]).view(dtype)


def _sources(calls: Sequence[BroadcastCall]) -> list[np.ndarray]:
    """What a broadcast's guard checks: the roots' payloads."""
    return [c.src for c in calls]


class Communicator:
    """Executes collectives with time/counter accounting.

    A ``*_stage`` method runs one collective in each of a BSP stage's
    disjoint groups: each is validated, moved, costed and counted as
    its own, in group order; only the clock update is one pass
    (:meth:`VirtualClocks.sync_stage`).  A per-group call is a
    one-group stage.

    AllReduce, AllGatherV and AllToAllV have split-phase twins
    (``start_X`` + :meth:`wait`) that separate *issue* from
    *completion*: the data moves and the counters record at issue, but
    the virtual-time charge is deferred to ``wait``, where the clocks
    charge ``max(compute_elapsed, comm_cost)`` for the overlapped window
    (the comm lane still receives the full blocking cost; the hidden
    part lands in the ``overlap`` lane).  Issuing and waiting immediately is
    bit-identical to the blocking call — values, counters, *and*
    clocks.

    ``guard`` (``None``: no faults) is the fault protocol's seam:
    ``guard(clocks, kind, ranks, payload)`` runs once per collective
    before it moves anything — per group in a stage, at :meth:`wait`
    for a split-phase call — and may charge ``clocks`` (stalls, retry
    backoff) or raise :class:`~repro.faults.injector.RankFailure`,
    leaving the groups before it moved and charged.  ``kind`` is one of
    :data:`COLLECTIVE_KINDS`; ``payload`` is the arrays the collective
    carries.  :class:`~repro.faults.injector.FaultInjector` sets it on
    attach.  Counters never see a guard's retries.
    """

    def __init__(
        self,
        costmodel: CostModel,
        clocks: VirtualClocks,
        counters: CommCounters | None = None,
    ):
        self.costmodel = costmodel
        self.clocks = clocks
        self.counters = counters if counters is not None else CommCounters()
        self.guard: Callable | None = None
        self._stages: dict[tuple, StageIndex] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_group(
        ranks: Sequence[int],
        buffers: Sequence[np.ndarray],
        uniform: bool = False,
    ) -> None:
        """Validate a collective's group, loudly and precisely.

        Always checks the rank/buffer pairing; with ``uniform=True``
        (element-wise reductions) additionally requires every buffer to
        share the first buffer's shape and dtype, and names the
        offending ranks when they don't — a shape/dtype skew would
        otherwise surface as an inscrutable ``np.array`` error.
        """
        if len(ranks) != len(buffers):
            raise ValueError(
                f"collective group mismatch: {len(ranks)} ranks "
                f"{list(ranks)} but {len(buffers)} buffers supplied"
            )
        if uniform and len(buffers) > 1:
            ref = np.asarray(buffers[0])
            offenders = [
                f"rank {r}: shape {a.shape}, dtype {a.dtype}"
                for r, b in zip(ranks, buffers)
                if (a := np.asarray(b)).shape != ref.shape or a.dtype != ref.dtype
            ]
            if offenders:
                raise ValueError(
                    "collective buffers disagree with rank "
                    f"{ranks[0]} (shape {ref.shape}, dtype {ref.dtype}): "
                    + "; ".join(offenders)
                )

    @staticmethod
    def _check_dtypes(ranks: Sequence[int], buffers: Sequence[np.ndarray]) -> None:
        """Require one dtype across variable-size send buffers.

        A skewed dtype would silently promote through
        ``np.concatenate`` and corrupt structured consumers; fail
        instead, naming the offending ranks.
        """
        if len(buffers) < 2:
            return
        ref = np.asarray(buffers[0]).dtype
        offenders = [
            f"rank {r}: dtype {a.dtype}"
            for r, b in zip(ranks, buffers)
            if (a := np.asarray(b)).dtype is not ref and a.dtype != ref
        ]
        if offenders:
            raise ValueError(
                f"variable-size collective needs one dtype, but rank "
                f"{ranks[0]} sends {ref} while " + "; ".join(offenders)
            )

    def _stage_index(self, groups: Sequence[Sequence[int]]) -> StageIndex:
        """``groups``' :class:`StageIndex`, built and checked once."""
        key = tuple(map(tuple, groups))
        stage = self._stages.get(key)
        if stage is None:
            stage = self._stages[key] = StageIndex.of(key)
        return stage

    def _stage(self, kind, groups, payloads, move, checked=None) -> list:
        """``move(ranks, payload) -> (cost, result)`` — one group's
        validation, data movement and counters (cost ``None``: nothing
        to do) — for every group in order, each behind the guard (over
        ``checked(payload)``), then one clock pass over the groups that
        moved (even if a later one raised); their results."""
        if len(groups) != len(payloads):
            raise ValueError(f"{len(groups)} groups but {len(payloads)} payloads")
        stage = self._stage_index(groups)
        moved, costs, results = [], [], []
        try:
            for ranks, payload in zip(groups, payloads):
                if self.guard is not None:
                    checked_payload = payload if checked is None else checked(payload)
                    self.guard(self.clocks, kind, ranks, checked_payload)
                cost, result = move(ranks, payload)
                if cost is not None:
                    moved.append(ranks)
                    costs.append(cost)
                    results.append(result)
        finally:
            if costs:
                if len(moved) < len(groups):
                    stage = self._stage_index(moved)
                self.clocks.sync_stage(stage, costs)
        return results

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _allreduce_core(
        self,
        ranks: Sequence[int],
        buffers: Sequence[np.ndarray],
        op: str,
        nic_sharing: int,
    ) -> tuple:
        """Validate, move data, record counters; return (cost, None)."""
        self._check_group(ranks, buffers, uniform=True)
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown op {op!r}; choose from {sorted(REDUCE_OPS)}")
        k = len(ranks)
        nbytes = buffers[0].nbytes if buffers else 0
        if k > 1:
            # one C-level copy of the (validated, uniform) buffers
            result = REDUCE_OPS[op](np.array(buffers))
            for b in buffers:
                b[...] = result
        t = self.costmodel.allreduce_time(ranks, nbytes, nic_sharing=nic_sharing)
        self.counters.record(
            "allreduce",
            serial_messages=2 * (k - 1),
            transfers=2 * k * (k - 1),
            nbytes=2 * nbytes * (k - 1) if k > 1 else 0,
        )
        return t, None

    def allreduce(
        self,
        ranks: Sequence[int],
        buffers: Sequence[np.ndarray],
        op: str = "sum",
        nic_sharing: int = 1,
    ) -> None:
        """In-place AllReduce: every buffer ends up holding the
        element-wise reduction of all of them."""
        self.allreduce_stage([ranks], [buffers], op=op, nic_sharing=nic_sharing)

    def allreduce_stage(self, groups, buffers, op: str = "sum", nic_sharing: int = 1):
        """:meth:`allreduce` in each of a stage's disjoint ``groups``
        (``buffers[g]`` are group ``g``'s)."""
        move = partial(self._allreduce_core, op=op, nic_sharing=nic_sharing)
        self._stage("allreduce", groups, buffers, move)

    def broadcast_stage(self, groups, calls, nic_sharing: int = 1):
        """One Broadcast in each of a stage's disjoint ``groups``
        (``calls[g]`` is group ``g``'s :class:`BroadcastCall`): a
        one-call group broadcast, guarded and counted as
        ``"broadcast"``."""
        move = partial(self._broadcast_core, kind="broadcast", nic_sharing=nic_sharing)
        self._stage("broadcast", groups, [[c] for c in calls], move, _sources)

    def grouped_broadcast_stage(self, groups, calls, nic_sharing: int = 1):
        """Multiple broadcasts over each of a stage's disjoint
        ``groups`` in a single aggregated launch per group (NCCL group
        call; paper §3.3.1 for the R != C case); ``calls[g]`` are group
        ``g``'s (none: skipped)."""
        move = partial(
            self._broadcast_core, kind="grouped_broadcast", nic_sharing=nic_sharing
        )
        self._stage("grouped_broadcast", groups, calls, move, _sources)

    def _broadcast_core(self, ranks, calls, kind: str, nic_sharing: int):
        """Move data, record counters; return (cost or ``None``, None)."""
        if not calls:
            return None, None
        k = len(ranks)
        sizes = []
        for call in calls:
            if len(call.dests) >= k:
                raise ValueError(
                    f"a broadcast over {k} ranks {list(ranks)} has at most "
                    f"{k - 1} destinations, got {len(call.dests)}"
                )
            src = np.asarray(call.src)
            for dest in call.dests:
                dest[...] = src
            sizes.append(src.nbytes)
        t = self.costmodel.grouped_broadcast_time(ranks, sizes, nic_sharing=nic_sharing)
        total_dests = sum(len(c.dests) for c in calls)
        self.counters.record(
            kind,
            serial_messages=(k - 1) if self.costmodel.profile.grouped_calls
            else len(calls) * (k - 1),
            transfers=total_dests,
            nbytes=sum(
                np.asarray(c.src).nbytes * len(c.dests) for c in calls
            ),
        )
        return t, None

    def allgatherv_stage(self, groups, send, counts, nic_sharing: int = 1) -> list:
        """Variable-size AllGather in each of a stage's disjoint
        ``groups``: every member receives the concatenation, in
        group-rank order, of its group's send data.

        ``send`` is every rank's data rank-major — rank ``r`` sends
        ``counts[r]`` rows, after those of ranks ``< r`` — as one array
        (:func:`rank_major` builds it from per-rank buffers).  Every
        group is validated, guarded, costed and counted as its own call
        (the guard checks the members' send slices); the data of all
        groups then moves with one gather.  One result per group
        (identical on every member, so a single shared copy), as
        slices of one array.

        Implemented by the paper as an NCCL AllGather plus grouped
        broadcasts; modeled here as one ring allgather over the total
        payload.
        """
        send, counts = np.asarray(send), np.asarray(counts)
        move, members = self._gather_plan(send, counts, nic_sharing)
        self._stage("allgatherv", groups, groups, move, members)
        return self._gather(send, counts, groups)

    def _gather_plan(self, send: np.ndarray, counts: np.ndarray, nic_sharing: int):
        """The per-group halves of an AllGatherv stage over rank-major
        ``send`` / ``counts``: ``move(ranks, ranks) -> (cost, None)`` —
        the group's validation, counters and cost — and
        ``members(ranks)``, the group's send slices a guard checks."""
        if send.ndim < 1:
            raise ValueError("allgatherv send data must be an array of rows")
        if counts.ndim != 1 or counts.dtype.kind not in "iu" or (counts < 0).any():
            raise ValueError(f"allgatherv counts must be per-rank sizes >= 0: {counts}")
        if int(counts.sum()) != len(send):
            raise ValueError(
                f"allgatherv counts sum to {int(counts.sum())} rows, "
                f"but the send data has {len(send)}"
            )
        row_nbytes = send.dtype.itemsize * int(np.prod(send.shape[1:]))
        sizes = counts.tolist()
        offsets = np.concatenate(([0], np.cumsum(counts))).tolist()

        def check(ranks) -> None:
            if min(ranks) < 0 or max(ranks) >= counts.size:
                raise ValueError(
                    f"allgatherv group {list(ranks)} names ranks without a "
                    f"count (counts cover ranks 0..{counts.size - 1})"
                )

        def move(ranks, _):
            check(ranks)
            k = len(ranks)
            total = sum(sizes[r] for r in ranks) * row_nbytes
            t = self.costmodel.allgather_time(ranks, total, nic_sharing=nic_sharing)
            self.counters.record(
                "allgatherv",
                serial_messages=k - 1,
                transfers=k * (k - 1),
                nbytes=total * (k - 1) if k > 1 else 0,
            )
            return t, None

        def members(ranks) -> list[np.ndarray]:
            check(ranks)
            return [send[offsets[r] : offsets[r + 1]] for r in ranks]

        return move, members

    def _gather(self, send: np.ndarray, counts: np.ndarray, groups) -> list[np.ndarray]:
        """Every group's received data — its members' rank-major
        segments of ``send``, in group-rank order — moved with one
        gather; one slice of the gathered array per group."""
        if not len(groups):
            return []
        stage = self._stage_index(groups)
        lens = counts[stage.idx]
        ends = np.cumsum(lens)
        starts = (np.cumsum(counts) - counts)[stage.idx]
        index = np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1])
        out = send.take(index, axis=0)  # fancy indexing is slow on 24-byte records
        cuts = [0] + ends[np.append(stage.starts[1:], lens.size) - 1].tolist()
        return [out[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def alltoallv(
        self,
        ranks: Sequence[int],
        send_matrix: Sequence[Sequence[np.ndarray]],
        nic_sharing: int = 1,
    ) -> list[np.ndarray]:
        """All-to-all exchange for the 1D baselines (:mod:`repro.baselines.oned`).

        ``send_matrix[i][j]`` is what group member ``i`` sends to group
        member ``j``.  Returns, per member, the concatenation of
        everything addressed to it.  Charged with the O(p^2)-message
        model the paper ascribes to 1D distributions.
        """
        move = partial(self._alltoallv_core, nic_sharing=nic_sharing)
        return self._stage(
            "alltoallv", [ranks], [send_matrix], move,
            lambda matrix: [b for row in matrix for b in row],
        )[0]

    def _alltoallv_core(
        self,
        ranks: Sequence[int],
        send_matrix: Sequence[Sequence[np.ndarray]],
        nic_sharing: int,
    ) -> tuple[float, list[np.ndarray]]:
        """Validate, move data, record counters; return (cost, result)."""
        k = len(ranks)
        if len(send_matrix) != k or any(len(row) != k for row in send_matrix):
            shape = f"{len(send_matrix)} x {[len(row) for row in send_matrix]}"
            raise ValueError(
                f"send_matrix must be {k} x {k} for group {list(ranks)}; "
                f"got {shape}"
            )
        parts = [[np.asarray(b) for b in row] for row in send_matrix]
        flat = [p for row in parts for p in row]
        # every part one dtype (an offending part names its sender), so
        # each member's parts join as raw bytes; an all-empty join keeps
        # the dtype
        self._check_dtypes([r for r in ranks for _ in ranks], flat)
        received = [_join([row[j] for row in parts]) for j in range(k)]
        nbytes = [p.nbytes for p in flat]
        total, max_pair = sum(nbytes), max(nbytes, default=0)
        t = self.costmodel.alltoall_time(ranks, max_pair, nic_sharing=nic_sharing)
        self.counters.record(
            "alltoallv",
            serial_messages=k * (k - 1),
            transfers=k * (k - 1),
            nbytes=total,
        )
        return t, received

    # ------------------------------------------------------------------
    # split-phase collectives (issue now, charge time at wait)
    # ------------------------------------------------------------------
    def _issue(self, kind, ranks, payload, move) -> CollectiveHandle:
        """One group's ``move(ranks, payload) -> (cost, result)`` now,
        its time at :meth:`wait`, whose guard checks the received data
        (an AllReduce's reduced buffers)."""
        t, result = move(ranks, payload)
        received = (
            payload if result is None else result if isinstance(result, list) else [result]
        )
        inflight = self.clocks.issue_collective(ranks, t)
        return CollectiveHandle(kind, tuple(ranks), inflight, result, received)

    def start_allreduce(
        self,
        ranks: Sequence[int],
        buffers: Sequence[np.ndarray],
        op: str = "sum",
        nic_sharing: int = 1,
    ) -> CollectiveHandle:
        """Issue an AllReduce; complete it with :meth:`wait`.

        The buffers hold the reduced values from issue onward (eager
        simulated data movement); callers must not mutate them until
        the matching ``wait``.
        """
        move = partial(self._allreduce_core, op=op, nic_sharing=nic_sharing)
        return self._issue("allreduce", ranks, buffers, move)

    def start_allreduce_stage(self, groups, buffers, op: str = "sum", nic_sharing: int = 1):
        """:meth:`start_allreduce` in each of a stage's disjoint
        ``groups``, in group order: one handle per group."""
        self._stage_index(groups)
        return [self.start_allreduce(g, b, op, nic_sharing) for g, b in zip(groups, buffers)]

    def start_allgatherv(
        self,
        ranks: Sequence[int],
        send_buffers: Sequence[np.ndarray],
        nic_sharing: int = 1,
    ) -> CollectiveHandle:
        """Issue a variable-size AllGather over one group, from one send
        buffer per member; complete with :meth:`wait`.

        A one-group :meth:`start_allgatherv_stage`.  ``handle.result``
        carries the concatenated array (see :class:`CollectiveHandle`
        for the pipelined-consumption contract); send buffers may be
        recycled once this returns.
        """
        self._check_group(ranks, send_buffers)
        self._check_dtypes(ranks, send_buffers)
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"allgatherv group {list(ranks)} repeats a rank")
        arrays = [np.asarray(b) for b in send_buffers]
        by_rank = [arrays[0][:0]] * (max(ranks) + 1)
        for r, a in zip(ranks, arrays):
            by_rank[r] = a
        (handle,) = self.start_allgatherv_stage([ranks], *rank_major(by_rank), nic_sharing)
        return handle

    def start_allgatherv_stage(self, groups, send, counts, nic_sharing: int = 1):
        """:meth:`allgatherv_stage` issued split-phase: each group is
        validated, counted and issued in group order (its guard runs at
        :meth:`wait`), then the data of all groups moves with one
        gather; one handle per group."""
        send, counts = np.asarray(send), np.asarray(counts)
        move, _ = self._gather_plan(send, counts, nic_sharing)
        self._stage_index(groups)
        handles = [self._issue("allgatherv", ranks, ranks, move) for ranks in groups]
        for handle, result in zip(handles, self._gather(send, counts, groups)):
            handle.result, handle.payload = result, [result]
        return handles

    def start_alltoallv(
        self,
        ranks: Sequence[int],
        send_matrix: Sequence[Sequence[np.ndarray]],
        nic_sharing: int = 1,
    ) -> CollectiveHandle:
        """Issue a personalized exchange; complete with :meth:`wait`.

        ``handle.result`` carries the per-member received buffers.
        """
        move = partial(self._alltoallv_core, nic_sharing=nic_sharing)
        return self._issue("alltoallv", ranks, send_matrix, move)

    def wait(self, handle: CollectiveHandle):
        """Complete a split-phase collective; returns its result.

        Charges the overlapped window to the participants' clocks (see
        :meth:`VirtualClocks.complete_collective`): the comm lane pays
        the full blocking cost, the total only its exposed remainder.
        Each handle completes exactly once.  The guard runs first:
        faults in flight surface when the receiver verifies the
        payload, so a retry's backoff lands before completion, in the
        overlap window, and not in the collective's own comm charge.
        """
        if self.guard is not None:
            self.guard(self.clocks, handle.kind, handle.ranks, handle.payload)
        self.clocks.complete_collective(handle.inflight)
        return handle.result
