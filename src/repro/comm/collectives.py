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


def _by_rank(ranks: Sequence[int], rows) -> tuple[np.ndarray, np.ndarray]:
    """One group's send parts (``rows[i]`` member ``i``'s, ``k`` each)
    as stage send data and a ``ranks x k`` count table; one dtype
    across the parts (an offending part names its sender)."""
    k = len(rows[0]) if len(rows) else 0
    if len(rows) != len(ranks) or any(len(row) != k for row in rows):
        shape = f"{len(rows)} x {[len(row) for row in rows]}"
        raise ValueError(f"send parts for group {list(ranks)} are {shape}")
    rows = [[np.asarray(b) for b in row] for row in rows]
    parts = [b for row in rows for b in row]
    Communicator._check_dtypes([r for r in ranks for _ in range(k)], parts)
    counts = np.zeros((max(ranks, default=-1) + 1, k), dtype=np.int64)
    counts[list(ranks)] = [[len(b) for b in row] for row in rows]
    order = np.argsort(ranks, kind="stable")
    return _join([b for i in order for b in rows[i]]), counts


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


def _arrays(buffers) -> Sequence[np.ndarray]:
    """What an AllReduce's guard checks: every member's every part."""
    return [a for part in buffers for a in part] if isinstance(buffers, tuple) else buffers


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
        """Validate, move data, record counters; return (cost, None).
        ``buffers`` is one array per member, or a tuple of such lists
        (parts: a window and a tail word, say), each reduced on its own."""
        parts, nbytes = buffers if isinstance(buffers, tuple) else (buffers,), 0
        for part in parts:
            self._check_group(ranks, part, uniform=True)
            nbytes += part[0].nbytes if part else 0
        if op not in REDUCE_OPS:
            raise ValueError(f"unknown op {op!r}; choose from {sorted(REDUCE_OPS)}")
        k = len(ranks)
        if k > 1:
            for part in parts:
                # one C-level copy of the (validated, uniform) part
                result = REDUCE_OPS[op](np.array(part))
                for b in part:
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
        self._stage("allreduce", groups, buffers, move, _arrays)

    def broadcast_stage(self, groups, calls, nic_sharing: int = 1):
        """One Broadcast in each of a stage's disjoint ``groups``
        (``calls[g]`` is group ``g``'s :class:`BroadcastCall`): a
        one-call group broadcast, guarded and counted as
        ``"broadcast"``."""
        move = partial(self._broadcast_core, kind="broadcast", nic_sharing=nic_sharing)
        self._stage("broadcast", groups, [[c] for c in calls], move, _sources)

    def grouped_broadcast_stage(self, groups, calls, nic_sharing: int = 1, tail=None):
        """Multiple broadcasts over each of a stage's disjoint
        ``groups`` in a single aggregated launch per group (NCCL group
        call; paper §3.3.1 for the R != C case); ``calls[g]`` are group
        ``g``'s (none, and no tail: skipped).  A ``tail`` (``p x t``,
        row ``r`` rank ``r``'s words) rides each launch as one more
        call, an AllGather of the members' words, guarded behind the
        roots' payloads; returns the ``p x t`` float64 sums of each
        group's rows in member order (row ``r``: what rank ``r``
        receives)."""
        words = None if tail is None else np.array(tail, dtype=np.float64).reshape(len(tail), -1)
        sums = None if words is None else np.zeros_like(words)
        move = partial(
            self._broadcast_core, kind="grouped_broadcast", nic_sharing=nic_sharing,
            words=words, sums=sums,
        )

        def checked(group):  # the roots' payloads, then the members' words
            return _sources(group[1]) + list(words[group[0]])

        zipped = words is not None and len(calls) == len(groups)  # else refused unmoved
        payloads = list(zip(groups, calls)) if zipped else calls
        self._stage("grouped_broadcast", groups, payloads, move, checked if zipped else _sources)
        return sums

    def _broadcast_core(self, ranks, calls, kind: str, nic_sharing: int, words=None, sums=None):
        """Move data (and sum the group's ``words`` rows into ``sums``),
        record counters; return (cost or ``None``, None)."""
        if words is not None:  # the payload is ``(ranks, calls)``
            calls, members = calls[1], list(ranks)
            sums[members] = REDUCE_OPS["sum"](words[members])
        elif not calls:
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
        cost, grouped = self.costmodel, self.costmodel.profile.grouped_calls
        t = cost.grouped_broadcast_time(ranks, sizes, nic_sharing=nic_sharing)
        n_calls, transfers = len(calls), sum(len(c.dests) for c in calls)
        nbytes = sum(np.asarray(c.src).nbytes * len(c.dests) for c in calls)
        if words is not None:  # one more call: an AllGather of k x t words
            gathered = k * words[0].nbytes
            extra = cost.allgather_time(ranks, gathered, nic_sharing=nic_sharing)
            t = max(t, extra) if grouped else t + extra
            n_calls, transfers, nbytes = n_calls + 1, transfers + k * (k - 1), nbytes + gathered * (k - 1)
        messages = (k - 1) if grouped else n_calls * (k - 1)
        self.counters.record(kind, serial_messages=messages, transfers=transfers, nbytes=nbytes)
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
        move, parts, deliver = self._gather_plan(groups, send, counts, nic_sharing)
        self._stage("allgatherv", groups, groups, move, parts)
        return deliver()

    def alltoallv_stage(self, groups, send, counts, nic_sharing: int = 1):
        """Personalized exchange (AllToAllV) in each of a stage's
        disjoint ``groups`` of ``k`` ranks: every member receives what
        each member of its group sends it, senders in group order.

        ``send`` is every rank's rows rank-major, each rank's ordered by
        destination member: ``counts[r, j]`` rows for its group's
        ``j``-th member.  Each group is validated, guarded (over its
        members' send parts, sender-major), costed on its largest pair
        (the paper's O(k^2)-message model) and counted as its own call;
        all groups' data then moves with one gather.  Returns every
        rank's received rows rank-major and their number per rank.
        """
        move, parts, deliver = self._exchange_plan(groups, send, counts, nic_sharing)
        self._stage("alltoallv", groups, groups, move, parts)
        return deliver()

    def _plan(self, kind: str, groups, send, counts):
        """A variable-size stage's rank-major ``send`` rows and ``p x k``
        ``counts`` (rows per rank and destination member; an AllGatherv's
        ``k`` is 1), validated up front.  Returns the stage index, the
        flat counts as a list, a row's bytes, ``parts(ranks)`` — a group's
        send parts, sender-major: what its guard checks — and
        ``take(runs)``: the rows of the flat parts ``runs`` in that order,
        moved with one gather, and each run's end."""
        send, counts = np.asarray(send), np.asarray(counts)
        stage = self._stage_index(groups)
        if counts.ndim != 2 or counts.dtype.kind not in "iu" or (counts < 0).any():
            raise ValueError(f"{kind} counts must be per-rank sizes >= 0: {counts}")
        p, k = counts.shape
        idx = stage.idx  # the groups are disjoint: a repeat is within one
        if idx.size and (idx.min() < 0 or idx.max() >= p or np.bincount(idx).max() > 1):
            raise ValueError(
                f"{kind} groups {[list(g) for g in groups]} need distinct ranks "
                f"with counts (0..{p - 1})"
            )
        flat = counts.ravel()
        if send.ndim < 1 or int(flat.sum()) != len(send):
            have = len(send) if send.ndim else "no rows"
            raise ValueError(
                f"{kind} counts sum to {flat.sum()} rows, but the send data has {have}"
            )
        offsets = np.concatenate(([0], np.cumsum(flat)))
        cuts = offsets.tolist()

        def parts(ranks) -> list[np.ndarray]:
            return [send[cuts[q] : cuts[q + 1]] for r in ranks for q in range(r * k, r * k + k)]

        def take(runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            lens = flat[runs]
            ends = np.cumsum(lens)
            index = np.repeat(offsets[runs] - (ends - lens), lens)
            index += np.arange(index.size)
            return send.take(index, axis=0), ends  # fancy indexing is slow on structured records

        row_nbytes = send.dtype.itemsize * int(np.prod(send.shape[1:]))
        return stage, flat.tolist(), row_nbytes, parts, take

    def _gather_plan(self, groups, send, counts, nic_sharing: int):
        """An AllGatherv stage's halves: ``move(ranks, ranks) -> (cost,
        None)`` (one ring allgather over the group's payload, and its
        counters), the guard's ``parts`` and ``deliver()``, one slice of
        the gathered rows per group."""
        counts = np.asarray(counts)[..., None]
        stage, sizes, row_nbytes, parts, take = self._plan("allgatherv", groups, send, counts)

        def move(ranks, _):
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

        def deliver() -> list[np.ndarray]:
            out, ends = take(stage.idx)
            cuts = [0] + ends[stage.starts[1:] - 1].tolist() + ends[-1:].tolist()
            return [out[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

        return move, parts, deliver

    def _exchange_plan(self, groups, send, counts, nic_sharing: int):
        """An AllToAllV stage's halves: ``move(ranks, ranks) -> (cost,
        None)`` (costed on the group's largest pair, and its counters),
        the guard's ``parts`` and ``deliver()``, every rank's received
        rows rank-major and their number per rank."""
        stage, sizes, row_nbytes, parts, take = self._plan("alltoallv", groups, send, counts)
        p, k = np.shape(counts)
        if k < 1 or any(len(g) != k for g in groups):
            raise ValueError(
                f"alltoallv groups {[list(g) for g in groups]} need distinct ranks "
                f"with counts (0..{p - 1}), {k} each"
            )

        def move(ranks, _):
            block = [sizes[r * k : r * k + k] for r in ranks]
            pair = max(map(max, block)) * row_nbytes
            t = self.costmodel.alltoall_time(ranks, pair, nic_sharing=nic_sharing)
            self.counters.record(
                "alltoallv",
                serial_messages=k * (k - 1),
                transfers=k * (k - 1),
                nbytes=sum(map(sum, block)) * row_nbytes,
            )
            return t, None

        def deliver() -> tuple[np.ndarray, np.ndarray]:
            # receiver (g, j) takes the parts (members[g, i], j) for i < k,
            # the flat runs members[g, i] * k + j; receivers in rank order
            members = stage.idx.reshape(-1, k)
            runs = (members[:, None, :] * k + np.arange(k)[:, None]).reshape(-1, k)
            recv, ends = take(runs[np.argsort(stage.idx)].ravel())
            recv_counts = np.zeros(p, dtype=np.int64)
            recv_counts[np.sort(stage.idx)] = np.diff(ends[k - 1 :: k], prepend=0)
            return recv, recv_counts

        return move, parts, deliver

    def alltoallv(self, ranks, send_matrix, nic_sharing: int = 1) -> list[np.ndarray]:
        """A one-group :meth:`alltoallv_stage` from the 1D baselines'
        per-member lists: ``send_matrix[i][j]`` is what member ``i`` sends
        member ``j``, all of one dtype (a sender of another is refused,
        named); per member, everything addressed to it."""
        recv, sizes = self.alltoallv_stage([ranks], *_by_rank(ranks, send_matrix), nic_sharing)
        received = np.split(recv, np.cumsum(sizes)[:-1])
        return [received[r] for r in ranks]

    # ------------------------------------------------------------------
    # split-phase collectives (issue now, charge time at wait)
    # ------------------------------------------------------------------
    def _issue(self, kind, ranks, payload, move) -> CollectiveHandle:
        """One group's ``move(ranks, payload) -> (cost, None)`` now, its
        time at :meth:`wait`, whose guard checks ``payload``: an
        AllReduce's reduced buffers (a variable-size stage sets its
        received data)."""
        inflight = self.clocks.issue_collective(ranks, move(ranks, payload)[0])
        return CollectiveHandle(kind, tuple(ranks), inflight, payload=payload)

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

    def start_allgatherv(self, ranks, send_buffers, nic_sharing: int = 1) -> CollectiveHandle:
        """Issue a variable-size AllGather over one group, from one send
        buffer per member; complete with :meth:`wait`.

        A one-group :meth:`start_allgatherv_stage`.  ``handle.result``
        carries the concatenated array (see :class:`CollectiveHandle`
        for the pipelined-consumption contract); send buffers may be
        recycled once this returns.
        """
        send, counts = _by_rank(ranks, [[b] for b in send_buffers])
        return self.start_allgatherv_stage([ranks], send, counts[:, 0], nic_sharing)[1][0]

    def start_allgatherv_stage(self, groups, send, counts, nic_sharing: int = 1):
        """:meth:`allgatherv_stage` issued split-phase: each group is
        validated, counted and issued in group order (its guard runs at
        :meth:`wait`, over its ``handle.result``), then the data of all
        groups moves with one gather; ``(results, handles)``, the
        blocking stage's results and one handle per group."""
        move, _, deliver = self._gather_plan(groups, send, counts, nic_sharing)
        handles = [self._issue("allgatherv", ranks, ranks, move) for ranks in groups]
        results = deliver()
        for handle, result in zip(handles, results):
            handle.result, handle.payload = result, [result]
        return results, handles

    def start_alltoallv(self, ranks, send_matrix, nic_sharing: int = 1) -> CollectiveHandle:
        """:meth:`alltoallv` issued split-phase (complete with
        :meth:`wait`); ``handle.result`` is the members' received rows."""
        send, counts = _by_rank(ranks, send_matrix)
        return self.start_alltoallv_stage([ranks], send, counts, nic_sharing)[1][0]

    def start_alltoallv_stage(self, groups, send, counts, nic_sharing: int = 1):
        """:meth:`alltoallv_stage` issued split-phase: each group is
        validated, counted and issued in group order (its guard runs at
        :meth:`wait`, over the members' received rows, its
        ``handle.result``), then the data of all groups moves with one
        gather; ``((recv, recv_counts), handles)``, the blocking
        stage's result and one handle per group."""
        move, _, deliver = self._exchange_plan(groups, send, counts, nic_sharing)
        handles = [self._issue("alltoallv", ranks, ranks, move) for ranks in groups]
        recv, recv_counts = deliver()
        received = np.split(recv, np.cumsum(recv_counts)[:-1])
        for handle in handles:
            handle.result = handle.payload = [received[r] for r in handle.ranks]
        return (recv, recv_counts), handles

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
