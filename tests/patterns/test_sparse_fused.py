"""Rank-fused ``sparse_push`` / ``sparse_pull`` against the per-rank
formulation they replaced.

The oracle below is the implementation as it stood before PR 14 — four
per-rank closures per stage run through ``Engine.map_ranks`` — kept
verbatim (renamed ``per_rank_sparse_*``; its send buffers, once drawn
from per-rank pools, are plain ``np.empty``) so the fused passes are
held to it bit for bit:
state on every rank, the active row queues (the oracle's per-rank
lists, stacked, are the fused pass's ``rows``), ``n_updated``, the clock
lanes and the communication counters, for ``min`` / ``max`` / ``sum``,
blocking and overlapped engines, and grids
including 1xp, px1, prime p and more ranks than vertices.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import rank_major
from repro.comm.grid import Grid2D
from repro.core.context import RankContext
from repro.core.engine import Engine
from repro.graph import Graph
from repro.kernels import scatter_reduce
from repro.patterns.sparse import (
    PAIR_DTYPE,
    SparseResult,
    sparse_pull,
    sparse_push,
)

from ..conftest import owns_col_gid, row_gid


# ----------------------------------------------------------------------
# the oracle: per-rank closures, as before the fusion
# ----------------------------------------------------------------------
class PerRankResult(NamedTuple):
    """What the oracle returns: per-rank active row queues."""

    active_row: list[np.ndarray]
    n_updated: int


def _pairs(gids: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """A ``{gid, val}`` send buffer."""
    buf = np.empty(gids.size, dtype=PAIR_DTYPE)
    buf["gid"] = gids
    buf["val"] = vals
    return buf


def _group_allgatherv(
    engine: Engine,
    ranks: list[int],
    sbufs: list[np.ndarray],
    nic_sharing: int,
    handles: list,
) -> np.ndarray:
    """One group's AllGatherv, blocking or split-phase per the engine.

    With ``engine.overlap`` the exchange is *issued* split-phase — data
    and counters materialize now, the comm-time charge is deferred — and
    the handle is appended to ``handles`` for the caller to wait after
    the apply phase, hiding the apply compute behind the in-flight
    exchange.  Blocking engines pay the comm charge here, exactly as
    before; either way the returned buffer is bit-identical.
    """
    if engine.overlap:
        h = engine.comm.start_allgatherv(ranks, sbufs, nic_sharing=nic_sharing)
        handles.append(h)
        return h.result
    by_rank = [sbufs[0][:0]] * engine.n_ranks
    for r, buf in zip(ranks, sbufs):
        by_rank[r] = buf
    return engine.comm.allgatherv_stage([ranks], *rank_major(by_rank), nic_sharing)[0]


def _wait_all(engine: Engine, handles: list) -> None:
    """Complete every in-flight exchange (no-op on blocking runs)."""
    for h in handles:
        engine.comm.wait(h)


def _apply_op(
    state: np.ndarray, lids: np.ndarray, vals: np.ndarray, op: str
) -> np.ndarray:
    """Apply the reduction; return unique LIDs whose value changed.

    ``op`` is one of ``"min"``/``"max"``/``"sum"`` (``"sum"`` has delta
    semantics: callers send deltas, not absolutes).  Change detection is
    the kernel's exact float compare of the stored value before/after —
    for ``"sum"`` that means a zero delta, or deltas cancelling exactly,
    leave the vertex out of the changed set.
    """
    return scatter_reduce(state, lids, vals, op)


def per_rank_sparse_push(
    engine: Engine,
    name: str,
    queues: list[np.ndarray],
    op: str = "min",
) -> PerRankResult:
    """Sparse push exchange.

    Parameters
    ----------
    queues:
        Per-rank arrays of *column-vertex LIDs* whose state the local
        compute kernel updated, deduplicated.
    op:
        Reduction applied in ``ReduceQueue``.
    """
    grid = engine.grid
    col_share = engine.stage_nic_sharing("col")
    row_share = engine.stage_nic_sharing("row")

    # ---- stage 1: AllGatherv + reduce along each column group -------
    def build_col(ctx: RankContext) -> np.ndarray:
        q = np.asarray(queues[ctx.rank], dtype=np.int64)
        engine.charge_vertices(ctx.rank, q.size)  # BuildQueue kernel
        state = ctx.get(name)
        return _pairs(ctx.localmap.col_gid(q), state[q])

    sbufs_all = engine.map_ranks(build_col)

    handles: list = []
    rbuf_of: list[Optional[np.ndarray]] = [None] * grid.n_ranks
    for id_c, ranks in engine.col_groups():
        rbuf = _group_allgatherv(
            engine, ranks, [sbufs_all[r] for r in ranks], col_share, handles
        )
        for r in ranks:
            rbuf_of[r] = rbuf

    def apply_col(ctx: RankContext) -> np.ndarray:
        lm = ctx.localmap
        state = ctx.get(name)
        rbuf = rbuf_of[ctx.rank]
        lids = lm.col_lid(rbuf["gid"])
        changed = _apply_op(state, lids, rbuf["val"], op)
        engine.charge_vertices(ctx.rank, rbuf.size)  # ReduceQueue kernel
        # Row-stage queue: changed ghosts plus this rank's own local
        # updates, restricted to row-owned vertices.
        cand = np.concatenate(
            [
                lm.col_gid(changed),
                lm.col_gid(np.asarray(queues[ctx.rank], dtype=np.int64)),
            ]
        )
        return np.unique(cand[lm.owns_row_gid(cand)])

    row_queues_gids = engine.map_ranks(apply_col)
    _wait_all(engine, handles)

    # ---- stage 2: exchange final values along each row group --------
    def build_row(ctx: RankContext) -> np.ndarray:
        lm = ctx.localmap
        gids = row_queues_gids[ctx.rank]
        engine.charge_vertices(ctx.rank, gids.size)
        state = ctx.get(name)
        return _pairs(gids, state[lm.row_lid(gids)])

    sbufs_all = engine.map_ranks(build_row)

    handles = []
    rbuf_of = [None] * grid.n_ranks
    uniq_of: list[Optional[np.ndarray]] = [None] * grid.n_ranks
    n_updated = 0
    for id_r, ranks in engine.row_groups():
        rbuf = _group_allgatherv(
            engine, ranks, [sbufs_all[r] for r in ranks], row_share, handles
        )
        uniq_gids = np.unique(rbuf["gid"])
        n_updated += int(uniq_gids.size)
        for r in ranks:
            rbuf_of[r] = rbuf
            uniq_of[r] = uniq_gids

    def apply_row(ctx: RankContext) -> np.ndarray:
        lm = ctx.localmap
        state = ctx.get(name)
        rbuf = rbuf_of[ctx.rank]
        # Values are final after the column reduction; assignment
        # (each vertex appears from exactly one root rank).
        state[lm.row_lid(rbuf["gid"])] = rbuf["val"]
        engine.charge_vertices(ctx.rank, rbuf.size)
        return lm.row_lid(uniq_of[ctx.rank])

    active_row = engine.map_ranks(apply_row)
    _wait_all(engine, handles)
    return PerRankResult(active_row=active_row, n_updated=n_updated)


def per_rank_sparse_pull(
    engine: Engine,
    name: str,
    queues: list[np.ndarray],
    op: str = "min",
) -> PerRankResult:
    """Sparse pull exchange: row-group reduce, column-group refresh.

    ``queues`` hold per-rank *row-vertex LIDs* updated by the local
    (partial) gather kernel.
    """
    grid = engine.grid
    col_share = engine.stage_nic_sharing("col")
    row_share = engine.stage_nic_sharing("row")

    # ---- stage 1: AllGatherv + reduce along each row group ----------
    def build_row(ctx: RankContext) -> np.ndarray:
        q = np.asarray(queues[ctx.rank], dtype=np.int64)
        engine.charge_vertices(ctx.rank, q.size)
        state = ctx.get(name)
        return _pairs(row_gid(ctx.localmap, q), state[q])

    sbufs_all = engine.map_ranks(build_row)

    handles: list = []
    rbuf_of: list[Optional[np.ndarray]] = [None] * grid.n_ranks
    for id_r, ranks in engine.row_groups():
        rbuf = _group_allgatherv(
            engine, ranks, [sbufs_all[r] for r in ranks], row_share, handles
        )
        for r in ranks:
            rbuf_of[r] = rbuf

    def apply_row(ctx: RankContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lm = ctx.localmap
        state = ctx.get(name)
        rbuf = rbuf_of[ctx.rank]
        lids = lm.row_lid(rbuf["gid"])
        changed = _apply_op(state, lids, rbuf["val"], op)
        engine.charge_vertices(ctx.rank, rbuf.size)
        cand = np.unique(
            np.concatenate(
                [
                    row_gid(lm, changed),
                    row_gid(lm, np.asarray(queues[ctx.rank], dtype=np.int64)),
                ]
            )
        )
        return cand, cand[owns_col_gid(lm, cand)], lm.row_lid(cand)

    applied = engine.map_ranks(apply_row)
    _wait_all(engine, handles)
    col_queues_gids = [a[1] for a in applied]
    active_row = [a[2] for a in applied]
    # ``cand`` is identical on every member of a row group, so each
    # group contributes its first member's count exactly once.
    n_updated = 0
    for id_r, ranks in engine.row_groups():
        n_updated += int(applied[ranks[0]][0].size)

    # ---- stage 2: refresh ghosts along each column group ------------
    def build_col(ctx: RankContext) -> np.ndarray:
        lm = ctx.localmap
        gids = col_queues_gids[ctx.rank]
        engine.charge_vertices(ctx.rank, gids.size)
        state = ctx.get(name)
        return _pairs(gids, state[lm.row_lid(gids)])

    sbufs_all = engine.map_ranks(build_col)

    handles = []
    rbuf_of = [None] * grid.n_ranks
    for id_c, ranks in engine.col_groups():
        rbuf = _group_allgatherv(
            engine, ranks, [sbufs_all[r] for r in ranks], col_share, handles
        )
        for r in ranks:
            rbuf_of[r] = rbuf

    def apply_col(ctx: RankContext) -> None:
        lm = ctx.localmap
        state = ctx.get(name)
        rbuf = rbuf_of[ctx.rank]
        state[lm.col_lid(rbuf["gid"])] = rbuf["val"]
        engine.charge_vertices(ctx.rank, rbuf.size)

    engine.foreach(apply_col)
    _wait_all(engine, handles)
    return PerRankResult(active_row=active_row, n_updated=n_updated)


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
GRIDS = [
    Grid2D(R=1, C=1),
    Grid2D(R=2, C=2),
    Grid2D(R=4, C=1),
    Grid2D(R=1, C=4),
    Grid2D(R=2, C=4),
    Grid2D(R=3, C=5),
    Grid2D(R=4, C=4),
    Grid2D(R=7, C=1),
    Grid2D(R=1, C=5),
]

#: Magnitudes whose float sums depend on the order they are added in.
ORDER_SENSITIVE = np.array([1e16, 1.0, -1e16, 0.1, 3.0, -0.3, 7e15, 2.0**-30])


def _graph(rng, n) -> Graph:
    m = int(rng.integers(0, 4 * n + 1))
    return Graph.from_edges(rng.integers(0, n, size=m), rng.integers(0, n, size=m), n)


def _prepare(graph, grid, overlap, seed, window):
    """An engine holding a consistent random state with a few entries of
    each rank's ``window`` overwritten (the local kernel's updates);
    returns the engine and the queues naming them."""
    engine = Engine(graph, grid=grid, overlap=overlap)
    engine.reset_timers()  # a run begins: allocate its state after this
    rng = np.random.default_rng(seed)
    n = graph.n_vertices
    engine.scatter_global("s", rng.choice(ORDER_SENSITIVE, size=n) * rng.integers(1, 4, size=n))
    queues = []
    for ctx in engine:
        sl = ctx.col_slice if window == "col" else ctx.row_slice
        size = sl.stop - sl.start
        k = int(rng.integers(0, size + 1)) if rng.random() < 0.7 else 0
        lids = np.sort(rng.choice(np.arange(sl.start, sl.stop), size=k, replace=False))
        ctx.get("s")[lids] = rng.choice(ORDER_SENSITIVE, size=k)
        queues.append(lids.astype(np.int64))
    return engine, queues


def _assert_same(fused: Engine, oracle: Engine, got: SparseResult, want: PerRankResult):
    for a, b in zip(fused, oracle):
        assert np.array_equal(a.get("s"), b.get("s")), a.rank
    assert got.n_updated == want.n_updated
    assert len(want.active_row) == fused.n_ranks
    expect, _ = fused.fleet.stack(want.active_row)
    assert got.rows.dtype == np.int64 and np.array_equal(got.rows, expect)
    for lane in ("clock", "compute", "comm", "overlap"):
        assert np.array_equal(getattr(fused.clocks, lane), getattr(oracle.clocks, lane)), lane
    assert fused.counters.summary() == oracle.counters.summary()


@settings(max_examples=60, deadline=None)
@given(
    grid=st.sampled_from(GRIDS),
    n=st.integers(min_value=2, max_value=48),
    op=st.sampled_from(["min", "max", "sum"]),
    overlap=st.booleans(),
    push=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fused_exchange_equals_per_rank_oracle(grid, n, op, overlap, push, seed):
    graph = _graph(np.random.default_rng(seed), n)
    window = "col" if push else "row"
    fused, queues = _prepare(graph, grid, overlap, seed, window)
    oracle, queues_b = _prepare(graph, grid, overlap, seed, window)
    for a, b in zip(queues, queues_b):
        assert np.array_equal(a, b)
    exchange, reference = (
        (sparse_push, per_rank_sparse_push) if push else (sparse_pull, per_rank_sparse_pull)
    )
    got = exchange(fused, "s", fused.fleet.stack(queues)[0], op=op)
    want = reference(oracle, "s", queues_b, op=op)
    _assert_same(fused, oracle, got, want)
    # the state the fused pass wrote is the per-rank arrays themselves
    stacked = fused.fleet.stacked("s")
    assert all(ctx.get("s").base is stacked for ctx in fused)


def test_sum_keeps_each_ranks_received_buffer_order():
    """Float ``sum`` is order-sensitive: every rank must see its group's
    buffer in received order (the tiles are member-major), or the last
    bits of the accumulated value differ."""
    graph = Graph.from_edges(np.arange(7), np.arange(1, 8), 8)
    grid = Grid2D(R=2, C=4)  # column groups of four
    engines = []
    for _ in range(2):
        engine = Engine(graph, grid=grid)
        engine.scatter_global("s", np.zeros(8))
        queues = []
        for ctx in engine:
            lid = ctx.col_slice.start  # the same ghost on every member
            ctx.get("s")[lid] = ORDER_SENSITIVE[ctx.block.id_r]
            queues.append(np.array([lid], dtype=np.int64))
        engines.append((engine, queues))
    (fused, q_a), (oracle, q_b) = engines
    got = sparse_push(fused, "s", fused.fleet.stack(q_a)[0], op="sum")
    want = per_rank_sparse_push(oracle, "s", q_b, op="sum")
    _assert_same(fused, oracle, got, want)
    # and the order did matter for these magnitudes
    ghost = oracle.ctx(0).get("s")[oracle.ctx(0).col_slice.start]
    assert ghost != float(np.sum(np.sort(ORDER_SENSITIVE[:4])))


@settings(max_examples=60, deadline=None)
@given(
    grid=st.sampled_from(GRIDS),
    n=st.integers(min_value=2, max_value=48),
    op=st.sampled_from(["min", "max", "sum"]),
    overlap=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_push_touched_covers_every_changed_cell(grid, n, op, overlap, seed):
    """``SparseResult.touched`` names every stacked cell whose bits
    changed — the local kernel's writes (the queues) included — so a
    caller can track freshness from it instead of scanning the state."""
    graph = _graph(np.random.default_rng(seed), n)
    engine = Engine(graph, grid=grid, overlap=overlap)
    rng = np.random.default_rng(seed)
    engine.scatter_global("s", rng.choice(ORDER_SENSITIVE, size=n) * rng.integers(1, 4, size=n))
    before = engine.fleet.stacked("s").copy()
    queues = []
    for ctx in engine:
        sl = ctx.col_slice
        k = int(rng.integers(0, sl.stop - sl.start + 1))
        lids = np.sort(rng.choice(np.arange(sl.start, sl.stop), size=k, replace=False))
        ctx.get("s")[lids] = rng.choice(ORDER_SENSITIVE, size=k)
        queues.append(lids.astype(np.int64))
    got = sparse_push(engine, "s", engine.fleet.stack(queues)[0], op=op)
    after = engine.fleet.stacked("s")
    changed = np.flatnonzero(before.view(np.int64) != after.view(np.int64))
    assert np.isin(changed, got.touched).all()
    assert got.touched.dtype == np.int64
    assert np.all((got.touched >= 0) & (got.touched < engine.fleet.size))
