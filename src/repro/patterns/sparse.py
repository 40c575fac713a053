"""Sparse queue-based 2D communication (paper §3.3.2, Algs. 3-5).

Sparse exchanges trade queue-building compute for communication volume
proportional to the number of *actual* state updates.  Buffers hold
``{vertex GID, state value}`` pairs; communication uses AllGatherv
along the reduction group followed by the mirrored broadcast stage,
exactly as Alg. 3:

* **push**: queue of updated ghost (column) vertices -> AllGatherv over
  the column group -> ``ReduceQueue`` -> queue of updated *owned* (row)
  vertices -> exchange over the row group -> final assignment.
* **pull**: the same with row/column roles swapped (partial gathers
  reduce over the row group first, ghosts refresh over column groups).

``ReduceQueue`` change-detection (Alg. 5 lines 8-12) runs through the
fused :func:`repro.kernels.scatter_reduce` kernel: one segmented
reduction that applies the op and returns the unique changed LIDs in
the same pass.  A rank's own
locally-updated row vertices are unioned into the second-stage queue
(its own echoes produce ``new == old`` in the reduce, exactly as in
the CUDA code, but their values still must travel to the rest of the
row group).

:func:`sparse_push` / :func:`sparse_pull` / :func:`propagate_active_pull`
take their queue as one *stacked* array — every rank's LIDs, rank-major,
in the :class:`~repro.core.fleet.Fleet`'s stacked LID space — and
return the updated rows the same way.  Each stage runs in three phases: a
**build** of every rank's send data as one rank-major array, the
**collectives** — one AllGatherv per group, issued as one stage call
(:meth:`~repro.comm.collectives.Communicator.allgatherv_stage`, which
moves every group's data with one gather) — and an **apply** of each
group's received buffer on every member.  Build and apply are
*rank-fused*: one vectorized pass over the fleet's stacked state does
what ``p`` per-rank closures did — one gather, one
:func:`~repro.kernels.scatter_reduce`, one
:func:`~repro.kernels.unique_bounded` per phase, with per-rank clock
charges applied as one vector add — while every group collective is
validated, costed and counted as its own.  Ranks own disjoint stacked LIDs and each
rank's updates keep their received-buffer order, so state, clocks and
counters are bit-identical to the per-rank formulation (the golden
clocks; what each stage hands each rank is checked in
``tests/patterns/test_sparse_fused.py``, and ``tests/test_mutants.py`` names
the contracts that catch each mistake; see docs/PERF.md).  Only the
k-lane twin, :func:`sparse_push_lanes`, still runs one closure per rank
(:meth:`Engine.map_ranks <repro.core.engine.Engine.map_ranks>`) on
per-rank ``(lids, lanes)`` queues, handing the stage call its buffers
through :func:`~repro.comm.collectives.rank_major`.

On an overlapped engine (``Engine(overlap=True)``) each stage's group
exchanges are *issued* split-phase instead: data and counters
materialize at issue, the apply runs against the in-flight buffers,
and the comm-time charge lands at the trailing ``wait`` — hiding the
apply compute behind each group's own exchange.  Values, counters, and
the compute/comm lanes stay bit-identical to a blocking run; only
exposed time shrinks (see docs/MODEL.md).

The functions return a :class:`SparseResult` carrying the active
row-vertex queue (paper §3.4.1) as stacked LIDs and the global count
of vertices whose state changed — the quantity the dense/sparse switch
policy consumes — and, from :func:`sparse_push`, every stacked LID
the exchange may have written (``touched``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..comm.collectives import rank_major
from ..core.context import RankContext
from ..core.engine import Engine
from ..kernels import scatter_reduce, scatter_reduce_lanes, unique_bounded

__all__ = [
    "PAIR_DTYPE",
    "LaneSparseResult",
    "SparseResult",
    "sparse_push",
    "sparse_push_lanes",
    "sparse_pull",
    "propagate_active_pull",
]

#: One queue entry: {vertex GID, state value} (paper Alg. 4 lines 6-7);
#: a k-lane exchange keys it ``lane * n + gid`` (:func:`sparse_push_lanes`).
PAIR_DTYPE = np.dtype([("gid", np.int64), ("val", np.float64)])

_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass
class SparseResult:
    """Outcome of one sparse exchange."""

    #: Every rank's updated row vertices as one rank-major queue of
    #: stacked LIDs, ascending (the same vertices on every rank of a
    #: row group): the active row queue of paper §3.4.1.
    rows: np.ndarray
    n_updated: int  # unique vertices whose state changed globally
    #: :func:`sparse_push` only: the stacked LIDs of the local queue,
    #: the column reduce's changed ghosts and every member's assigned
    #: row cells — a superset of what changed, unsorted, may repeat.
    touched: Optional[np.ndarray] = None


#: Most elements one tiled apply pass materializes (see :func:`_tiles`).
_TILE_BUDGET = 1 << 18


def _pairs(gids: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``{gid, val}`` send data of a rank-major queue."""
    pairs = np.empty(gids.size, dtype=PAIR_DTYPE)
    pairs["gid"] = gids
    pairs["val"] = vals
    return pairs


def _queue(fleet, queue) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A rank-major queue of stacked LIDs as ``(lids, owning rank of
    each, entries per rank)``; refuses any other order."""
    lids = np.asarray(queue, dtype=np.int64)
    ranks = fleet.rank_of(lids)
    if ranks.size and (
        ranks[0] < 0 or ranks[-1] >= fleet.n_ranks or (np.diff(ranks) < 0).any()
    ):
        raise ValueError(
            "a sparse exchange's queue must be rank-major stacked LIDs in "
            f"[0, {fleet.size})"
        )
    return lids, ranks, np.bincount(ranks, minlength=fleet.n_ranks)


def _exchange(engine: Engine, groups, send, counts, nic_sharing: int, handles: list):
    """One AllGatherv per group (``(id, ranks)`` pairs) of the rank-major
    ``send`` data (``counts[r]`` entries of rank ``r``), as one stage
    call; returns the received buffers (one per group) and each rank's
    received length.  With ``engine.overlap`` the stage is issued
    split-phase and its handles appended to ``handles``, for the caller
    to wait after the apply phase it hides."""
    members = [ranks for _, ranks in groups]
    if engine.overlap:
        rbufs, issued = engine.comm.start_allgatherv_stage(members, send, counts, nic_sharing)
        handles.extend(issued)
    else:
        rbufs = engine.comm.allgatherv_stage(members, send, counts, nic_sharing)
    sizes = np.empty(engine.n_ranks, dtype=np.int64)
    for ranks, rbuf in zip(members, rbufs):
        sizes[ranks] = rbuf.size
    return rbufs, sizes


def _tiles(groups, rbufs, gid_shift: np.ndarray):
    """Received pairs as the members see them, in stacked LIDs.

    Every member of a group applies the group's whole buffer to its own
    window, so the buffer is tiled once per member (member-major: each
    rank's updates stay in received-buffer order, which ``sum`` needs).
    Yields ``(lids, vals)`` batches of whole groups, closed once they
    pass :data:`_TILE_BUDGET` elements, so temporaries stay bounded
    when queues are large.
    """
    lids, vals, held = [], [], 0
    for (_, ranks), rbuf in zip(groups, rbufs):
        if rbuf.size == 0:
            continue
        lids.append((rbuf["gid"] - gid_shift[ranks, None]).ravel())
        vals.append(np.tile(rbuf["val"], len(ranks)))
        held += lids[-1].size
        if held >= _TILE_BUDGET:
            yield np.concatenate(lids), np.concatenate(vals)
            lids, vals, held = [], [], 0
    if lids:
        yield np.concatenate(lids), np.concatenate(vals)


def _reduce_received(
    state: np.ndarray, groups, rbufs, gid_shift: np.ndarray, op: str
) -> np.ndarray:
    """``ReduceQueue`` on every rank at once: reduce each group's
    received buffer into every member's window of the stacked
    ``state``; returns the stacked LIDs whose value changed (any order).

    ``op`` is one of ``"min"``/``"max"``/``"sum"`` (``"sum"`` has delta
    semantics: callers send deltas, not absolutes).  Change detection is
    the kernel's exact float compare of the stored value before/after —
    for ``"sum"`` that means a zero delta, or deltas cancelling exactly,
    leave the vertex out of the changed set.
    """
    changed = [
        scatter_reduce(state, lids, vals, op)
        for lids, vals in _tiles(groups, rbufs, gid_shift)
    ]
    if len(changed) == 1:
        return changed[0]
    return np.concatenate(changed) if changed else _EMPTY_I64


def _assign_received(state: np.ndarray, groups, rbufs, gid_shift: np.ndarray) -> None:
    """Final assignment on every rank at once: write each group's
    received values into every member's window."""
    for lids, vals in _tiles(groups, rbufs, gid_shift):
        state[lids] = vals


def _wait_all(engine: Engine, handles: list) -> None:
    """Complete every in-flight exchange (no-op on blocking runs)."""
    for h in handles:
        engine.comm.wait(h)


def sparse_push(
    engine: Engine,
    name: str,
    queue: np.ndarray,
    op: str = "min",
) -> SparseResult:
    """Sparse push exchange.

    Parameters
    ----------
    queue:
        Rank-major stacked *column-vertex LIDs* whose state the local
        compute kernel updated, deduplicated per rank (the caller's
        BuildQueue); each rank's entries travel in queue order.
    op:
        Reduction applied in ``ReduceQueue``: ``"min"``, ``"max"`` or
        ``"sum"`` (delta semantics).
    """
    fleet = engine.fleet
    state = fleet.stacked(name)
    col_groups, row_groups = list(engine.col_groups()), list(engine.row_groups())
    col_shift, row_shift = fleet.col_gid_shift, fleet.row_gid_shift

    # ---- stage 1: AllGatherv + reduce along each column group -------
    q, q_ranks, q_counts = _queue(fleet, queue)
    engine.charge_vertices(None, q_counts)  # BuildQueue kernel
    q_gids = q + col_shift[q_ranks]

    handles: list = []
    rbufs, sizes = _exchange(
        engine, col_groups, _pairs(q_gids, state[q]), q_counts,
        engine.stage_nic_sharing("col"), handles,
    )

    changed = _reduce_received(state, col_groups, rbufs, col_shift, op)
    engine.charge_vertices(None, sizes)  # ReduceQueue kernel
    # Row-stage queue: changed ghosts plus each rank's own local
    # updates, restricted to row-owned vertices — deduplicated on the
    # stacked row LID, i.e. per rank in GID order.
    ranks = np.concatenate([fleet.rank_of(changed), q_ranks])
    gids = np.concatenate([changed + col_shift[ranks[: changed.size]], q_gids])
    owned = (gids >= fleet.row_start[ranks]) & (gids < fleet.row_stop[ranks])
    rows = unique_bounded(gids[owned] - row_shift[ranks[owned]], fleet.size)
    _wait_all(engine, handles)

    # ---- stage 2: exchange final values along each row group --------
    row_counts = fleet.counts(rows)
    engine.charge_vertices(None, row_counts)
    send = _pairs(rows + row_shift[fleet.ranks(row_counts)], state[rows])

    handles = []
    rbufs, sizes = _exchange(
        engine, row_groups, send, row_counts, engine.stage_nic_sharing("row"), handles
    )

    # Values are final after the column reduction; assignment (each
    # vertex appears from exactly one root rank).
    _assign_received(state, row_groups, rbufs, row_shift)
    engine.charge_vertices(None, sizes)
    # Every member's stacked row LIDs of its group's updated vertices —
    # exactly the cells the assignment wrote.  Row groups are
    # consecutive ranks, so group by group, member by member is
    # rank-major.
    updated, n_updated = [], 0
    for (_, members), rbuf in zip(row_groups, rbufs):
        uniq_gids = unique_bounded(rbuf["gid"], engine.partition.n_vertices)
        n_updated += int(uniq_gids.size)
        updated.append((uniq_gids - row_shift[members, None]).ravel())
    updated = np.concatenate(updated)
    _wait_all(engine, handles)
    return SparseResult(
        rows=updated, n_updated=n_updated, touched=np.concatenate([q, changed, updated])
    )


@dataclass
class LaneSparseResult:
    """Outcome of one fused k-lane sparse exchange."""

    #: Per-rank ``(row_lids, lanes)`` of updated owned cells,
    #: lane-major sorted (within each lane, LIDs ascend — exactly the
    #: order the 1-D exchange reports for that lane alone).  The ranks
    #: of a row group share one ``lanes`` array: read it, don't write it.
    active_row: list[tuple[np.ndarray, np.ndarray]]
    #: Per-lane count of unique vertices whose state changed globally.
    n_updated: np.ndarray
    #: Per-rank ``(col_lids, lanes)`` of every column-window cell this
    #: exchange may have written: the column reduce's changed ghosts
    #: plus the rank's own local update queue.  Unsorted and possibly
    #: duplicated — a superset of the actually-changed column cells,
    #: for callers that track freshness without a full state scan.
    active_col: list[tuple[np.ndarray, np.ndarray]]


def sparse_push_lanes(
    engine: Engine,
    name: str,
    queues: list[tuple[np.ndarray, np.ndarray]],
    op: str = "min",
) -> LaneSparseResult:
    """Sparse push exchange fusing ``k`` query lanes into one stream.

    The lane-batched analogue of :func:`sparse_push` over a 2-D
    ``(N_T, k)`` state: ``queues[rank]`` is a ``(col_lids, lanes)``
    pair naming the cells the local kernel updated, and every group
    exchange ships **one** ``{lane·n + gid, val}`` buffer of
    :data:`PAIR_DTYPE` records carrying all k frontiers — one
    collective (one α charge) per group per stage, where k sequential
    runs would pay k, and the scalar exchange's 16 bytes per record
    (``n`` is the global vertex count; at k = 1 the key *is* the GID).

    Per lane the exchange is bit-identical to :func:`sparse_push` on
    that lane's column: the reduce runs through the composite index
    of :func:`~repro.kernels.scatter_reduce_lanes` (same update
    order per lane as the 1-D kernel), queue dedup is on the lane-major
    key itself (so within a lane, GIDs sort exactly as the 1-D
    ``np.unique``), and the final row assignment writes values already
    made final by the column reduction.  Refuses a batch whose ``k·n``
    keys would overflow ``int64``.
    """
    grid = engine.grid
    col_share = engine.stage_nic_sharing("col")
    row_share = engine.stage_nic_sharing("row")
    n_v = engine.partition.n_vertices
    k = engine.ctx(0).get(name).shape[1]
    if k * n_v > np.iinfo(np.int64).max:
        raise ValueError(
            f"{k} lanes x {n_v} vertices overflow the int64 lane-major key"
        )

    def _decode(rbuf: np.ndarray) -> tuple[np.ndarray, ...]:
        # (gid, lane, val) columns, decoded once per group, not per member
        lanes, gids = np.divmod(rbuf["gid"], n_v)
        return gids, lanes, np.ascontiguousarray(rbuf["val"])

    # ---- stage 1: AllGatherv + lane reduce along each column group --
    def build_col(ctx: RankContext) -> np.ndarray:
        lids = np.asarray(queues[ctx.rank][0], dtype=np.int64)
        lanes = np.asarray(queues[ctx.rank][1], dtype=np.int64)
        engine.charge_vertices(ctx.rank, lids.size)  # BuildQueue kernel
        state = ctx.get(name)
        return _pairs(lanes * n_v + ctx.localmap.col_gid(lids), state[lids, lanes])

    sbufs_all = engine.map_ranks(build_col)

    handles: list = []
    rbuf_of: list[Optional[tuple]] = [None] * grid.n_ranks
    col_groups = list(engine.col_groups())
    rbufs, _ = _exchange(engine, col_groups, *rank_major(sbufs_all), col_share, handles)
    for g, (_, ranks) in enumerate(col_groups):
        rbufs[g] = received = _decode(rbufs[g])  # drop the structured copy
        for r in ranks:
            rbuf_of[r] = received

    def apply_col(ctx: RankContext) -> np.ndarray:
        lm = ctx.localmap
        state = ctx.get(name)
        gids, lanes, vals = rbuf_of[ctx.rank]
        ch_lids, ch_lanes = scatter_reduce_lanes(
            state, lm.col_lid(gids), vals, op, lanes=lanes
        )
        engine.charge_vertices(ctx.rank, gids.size)  # ReduceQueue kernel
        # Row-stage queue: changed ghosts plus this rank's own local
        # updates, restricted to row-owned cells; dedup on a lane-major
        # composite so each lane's GIDs stay in 1-D sorted order.
        qlids = np.asarray(queues[ctx.rank][0], dtype=np.int64)
        qlanes = np.asarray(queues[ctx.rank][1], dtype=np.int64)
        cand_gid = np.concatenate([lm.col_gid(ch_lids), lm.col_gid(qlids)])
        cand_lane = np.concatenate([ch_lanes, qlanes])
        owned = lm.owns_row_gid(cand_gid)
        comp = cand_lane[owned] * n_v + cand_gid[owned]
        touched = (
            np.concatenate([ch_lids, qlids]),
            np.concatenate([ch_lanes, qlanes]),
        )
        return unique_bounded(comp, k * n_v), touched

    col_results = engine.map_ranks(apply_col)
    row_queue_comps = [r[0] for r in col_results]
    active_col = [r[1] for r in col_results]
    _wait_all(engine, handles)

    # ---- stage 2: exchange final values along each row group --------
    def build_row(ctx: RankContext) -> np.ndarray:
        comp = row_queue_comps[ctx.rank]
        lanes, gids = np.divmod(comp, n_v)
        engine.charge_vertices(ctx.rank, comp.size)
        state = ctx.get(name)
        return _pairs(comp, state[ctx.localmap.row_lid(gids), lanes])

    sbufs_all = engine.map_ranks(build_row)

    handles = []
    rbuf_of = [None] * grid.n_ranks
    n_updated = np.zeros(k, dtype=np.int64)
    row_groups = list(engine.row_groups())
    rbufs, _ = _exchange(engine, row_groups, *rank_major(sbufs_all), row_share, handles)
    for g, (_, ranks) in enumerate(row_groups):
        uniq_comp = unique_bounded(rbufs[g]["gid"], k * n_v)
        uniq = (uniq_comp % n_v, uniq_comp // n_v)  # updated (gid, lane) cells
        rbufs[g] = received = _decode(rbufs[g])
        n_updated += np.bincount(uniq[1], minlength=k)
        for r in ranks:
            rbuf_of[r] = received + uniq

    def apply_row(ctx: RankContext) -> tuple[np.ndarray, np.ndarray]:
        lm = ctx.localmap
        state = ctx.get(name)
        gids, lanes, vals, uniq_gids, uniq_lanes = rbuf_of[ctx.rank]
        # Values are final after the column reduction; assignment.
        state[lm.row_lid(gids), lanes] = vals
        engine.charge_vertices(ctx.rank, gids.size)
        return lm.row_lid(uniq_gids), uniq_lanes

    active_row = engine.map_ranks(apply_row)
    _wait_all(engine, handles)
    return LaneSparseResult(
        active_row=active_row, n_updated=n_updated, active_col=active_col
    )


def sparse_pull(
    engine: Engine,
    name: str,
    queue: np.ndarray,
    op: str = "min",
) -> SparseResult:
    """Sparse pull exchange: row-group reduce, column-group refresh.

    ``queue`` holds the rank-major stacked *row-vertex LIDs* updated by
    the local (partial) gather kernel.
    """
    fleet = engine.fleet
    state = fleet.stacked(name)
    col_groups, row_groups = list(engine.col_groups()), list(engine.row_groups())
    col_shift, row_shift = fleet.col_gid_shift, fleet.row_gid_shift

    # ---- stage 1: AllGatherv + reduce along each row group ----------
    q, q_ranks, q_counts = _queue(fleet, queue)
    engine.charge_vertices(None, q_counts)

    handles: list = []
    rbufs, sizes = _exchange(
        engine, row_groups, _pairs(q + row_shift[q_ranks], state[q]), q_counts,
        engine.stage_nic_sharing("row"), handles,
    )

    _reduce_received(state, row_groups, rbufs, row_shift, op)
    engine.charge_vertices(None, sizes)
    # Updated row vertices: every vertex a member of the row group
    # queued — each member received the group's whole buffer, so the
    # rows are the same on every member, and each group counts its
    # vertices once.  Row groups are consecutive ranks: group by group,
    # member by member is rank-major.
    rows, n_updated = [_EMPTY_I64], 0
    for (_, members), rbuf in zip(row_groups, rbufs):
        uniq_gids = unique_bounded(rbuf["gid"], engine.partition.n_vertices)
        n_updated += int(uniq_gids.size)
        rows.append((uniq_gids - row_shift[members, None]).ravel())
    rows = np.concatenate(rows)
    row_counts = fleet.counts(rows)
    _wait_all(engine, handles)

    # ---- stage 2: refresh ghosts along each column group ------------
    ranks = fleet.ranks(row_counts)
    gids = rows + row_shift[ranks]
    owned = (gids >= fleet.col_start[ranks]) & (gids < fleet.col_stop[ranks])
    col_counts = np.bincount(ranks[owned], minlength=fleet.n_ranks)
    engine.charge_vertices(None, col_counts)

    handles = []
    rbufs, sizes = _exchange(
        engine, col_groups, _pairs(gids[owned], state[rows[owned]]), col_counts,
        engine.stage_nic_sharing("col"), handles,
    )

    _assign_received(state, col_groups, rbufs, col_shift)
    engine.charge_vertices(None, sizes)
    _wait_all(engine, handles)
    return SparseResult(rows=rows, n_updated=n_updated)


def propagate_active_pull(engine: Engine, rows: np.ndarray) -> np.ndarray:
    """Build the next pull-iteration active queue (paper §3.4.1).

    For pull updates the next active vertices are the *neighbors* of
    this iteration's updated vertices, not the updated vertices
    themselves.  ``rows`` — this iteration's updated row vertices, a
    rank-major queue of stacked LIDs — expand into every rank's set of
    neighbor GIDs, which is then shared push-style: across the column
    groups (to reach the neighbors' owners) and then across the row
    groups (to make the queue row-group-consistent).  Returns the
    active rows the same way, ascending.
    """
    fleet = engine.fleet
    col_groups, row_groups = list(engine.col_groups()), list(engine.row_groups())
    row_shift = fleet.row_gid_shift

    # Expand neighbors locally: each rank's unique neighbor GIDs,
    # ascending (a rank's column LIDs map to GIDs in order).
    rows, _, counts = _queue(fleet, rows)
    degrees = fleet.row_degrees(rows)
    engine.charge_edges(None, degrees, segments=counts)
    dst = [ex.dst for _, ex in fleet.expand(rows, degrees)]
    cols = unique_bounded(np.concatenate(dst) if dst else _EMPTY_I64, fleet.size)
    col_counts = fleet.counts(cols)

    # Column stage: route neighbor GIDs to their row owners.  The
    # members of a column group own disjoint row ranges (one per block
    # row), so every received GID has one owner among them, which keeps
    # it as a stacked row LID.
    handles: list = []
    rbufs, sizes = _exchange(
        engine, col_groups, cols + fleet.col_gid_shift[fleet.ranks(col_counts)],
        col_counts, engine.stage_nic_sharing("col"), handles,
    )
    owned = [_EMPTY_I64]
    for (_, members), rbuf in zip(col_groups, rbufs):
        owner = np.take(members, np.searchsorted(fleet.row_stop[members], rbuf, "right"))
        owned.append(rbuf - row_shift[owner])
    engine.charge_vertices(None, sizes)
    kept = unique_bounded(np.concatenate(owned), fleet.size)
    kept_counts = fleet.counts(kept)
    _wait_all(engine, handles)

    # Row stage: union into a row-group-consistent active queue.
    handles = []
    rbufs, sizes = _exchange(
        engine, row_groups, kept + row_shift[fleet.ranks(kept_counts)], kept_counts,
        engine.stage_nic_sharing("row"), handles,
    )
    engine.charge_vertices(None, sizes)
    # Row groups are consecutive ranks: group by group, member by
    # member is rank-major.
    active = [_EMPTY_I64] + [
        (unique_bounded(rbuf, engine.partition.n_vertices) - row_shift[members, None]).ravel()
        for (_, members), rbuf in zip(row_groups, rbufs)
    ]
    _wait_all(engine, handles)
    return np.concatenate(active)
