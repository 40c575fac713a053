"""The stacked vertex-program loop and ``propagate_active_pull`` against
the per-rank formulation they replaced.

The oracle below is the implementation as it stood before the scalar
path kept one queue form, kept verbatim (renamed ``per_rank_*``): the
loop's local compute as one ``Engine.map_ranks`` closure per rank, the
queues cut and joined with ``fleet.split`` / ``fleet.stack`` around
each exchange, ``propagate_active_pull`` as three per-rank closures,
and a checkpoint's queue encoded from the per-rank lists.  The stacked
loop is held to it bit for bit: values, iterations, all seven clock
lanes, the communication counters and the encoded queue of every
superstep's checkpoint, for the five ``CC_VARIANTS`` and SSSP, on
blocking and overlapped engines, over tall, wide, non-divisible and
256-rank grids.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest

from repro.algorithms import CC_VARIANTS
from repro.comm.collectives import rank_major
from repro.comm.grid import Grid2D
from repro.core import fleet as fleet_mod
from repro.core.context import RankContext
from repro.core.engine import Engine
from repro.core.program import (
    VertexProgram,
    init_vertex_state,
    run_vertex_program,
)
from repro.graph import rmat
from repro.kernels import scatter_reduce
from repro.patterns.dense import dense_exchange
from repro.patterns.sparse import (
    _exchange,
    _wait_all,
    propagate_active_pull,
    sparse_pull,
    sparse_push,
)
from repro.patterns.switching import SwitchPolicy
from repro.reference.graphs import path_graph

_IDENTITY = {"min": np.inf, "max": -np.inf}


# ----------------------------------------------------------------------
# the oracle: per-rank closures, as before the stacked queue
# ----------------------------------------------------------------------
def per_rank_encode_queue(fleet, queue: list) -> np.ndarray:
    """A per-rank queue of row LIDs as a checkpoint keeps it: the
    original ids of the row-group leaders' entries in queue order."""
    grid = fleet.partition.grid
    leaders = [grid.row_group_ranks(i)[0] for i in range(grid.C)]
    lids = [queue[r] for r in leaders]
    shift = (fleet.base[:-1] + fleet.row_gid_shift)[leaders]
    gids = np.concatenate(lids) + np.repeat(shift, [len(q) for q in lids])
    return fleet.partition.original_gid(gids)


def per_rank_propagate_active_pull(
    engine: Engine, updated_row: list[np.ndarray]
) -> list[np.ndarray]:
    """The next pull-iteration active queue, rank by rank."""
    grid = engine.grid
    col_share = engine.stage_nic_sharing("col")
    row_share = engine.stage_nic_sharing("row")

    def expand_neighbors(ctx: RankContext) -> np.ndarray:
        lids = np.asarray(updated_row[ctx.rank], dtype=np.int64)
        degs = ctx.local_degrees()[lids - ctx.localmap.row_offset]
        engine.charge_edges(ctx.rank, degs)
        dst = ctx.expand(lids, degs).dst
        return np.unique(ctx.localmap.col_gid(np.unique(dst)))

    neighbor_gids = engine.map_ranks(expand_neighbors)

    handles: list = []
    rbuf_of: list[Optional[np.ndarray]] = [None] * grid.n_ranks
    col_groups = list(engine.col_groups())
    rbufs, _ = _exchange(engine, col_groups, *rank_major(neighbor_gids), col_share, handles)
    for (_, ranks), rbuf in zip(col_groups, rbufs):
        for r in ranks:
            rbuf_of[r] = rbuf

    def keep_owned(ctx: RankContext) -> np.ndarray:
        lm = ctx.localmap
        rbuf = rbuf_of[ctx.rank]
        engine.charge_vertices(ctx.rank, rbuf.size)
        return np.unique(rbuf[lm.owns_row_gid(rbuf)])

    partial = engine.map_ranks(keep_owned)
    _wait_all(engine, handles)

    handles = []
    merged_of: list[Optional[np.ndarray]] = [None] * grid.n_ranks
    rbuf_sizes = [0] * grid.n_ranks
    row_groups = list(engine.row_groups())
    rbufs, _ = _exchange(engine, row_groups, *rank_major(partial), row_share, handles)
    for g, (_, ranks) in enumerate(row_groups):
        size, rbufs[g] = rbufs[g].size, np.unique(rbufs[g])
        for r in ranks:
            merged_of[r] = rbufs[g]
            rbuf_sizes[r] = size

    def to_active(ctx: RankContext) -> np.ndarray:
        engine.charge_vertices(ctx.rank, rbuf_sizes[ctx.rank])
        return ctx.localmap.row_lid(merged_of[ctx.rank])

    active = engine.map_ranks(to_active)
    _wait_all(engine, handles)
    return active


def per_rank_run_vertex_program(engine: Engine, program: VertexProgram, tag: str):
    """The label-correcting loop with a per-rank local compute (no
    resume: a run from the start)."""
    part, grid, fleet = engine.partition, engine.grid, engine.fleet
    name, op, push = program.name, program.op, program.direction == "push"
    all_rows = [ctx.row_lids() for ctx in engine]

    policy = SwitchPolicy(part.n_vertices, grid, mode=program.mode)
    engine.reset_timers()
    init_vertex_state(engine, name, program.init)
    active = [
        rows[ctx.get(name)[rows] != _IDENTITY[op]] if push else rows
        for ctx, rows in zip(engine, all_rows)
    ]
    s = SimpleNamespace(active=active, iteration=0, done=False)

    def saved():
        active = per_rank_encode_queue(fleet, s.active)
        return {**vars(s), "active": active, "use_sparse": policy.use_sparse}

    while not s.done:
        s.iteration += 1
        rows_per_rank = s.active if program.use_queue else all_rows
        sparse_now = policy.use_sparse
        if not sparse_now:
            prev = fleet.stacked(name).copy()

        def local_compute(ctx):
            state = ctx.get(name)
            rows = rows_per_rank[ctx.rank]
            degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
            engine.charge_edges(ctx.rank, degs, work_per_edge=program.work_per_edge)
            ex = ctx.expand(rows, degs)
            if ex.dst.size == 0:
                return np.empty(0, dtype=np.int64)
            to, frm = (ex.dst, ex.src) if push else (ex.src, ex.dst)
            vals = state[frm]
            if program.along_edge is not None:
                vals = program.along_edge(vals, ex.weights)
            return scatter_reduce(state, to, vals, op)

        queues = engine.map_ranks(local_compute)

        if sparse_now:
            exchange = sparse_push if push else sparse_pull
            queue, _ = fleet.stack(queues)
            result = exchange(engine, name, queue, op=op)
            n_updated = result.n_updated
            rows = result.rows
        else:

            def changed(state):
                # each rank's moved cells in the window the reduce stage
                # made final: a push's column window, a pull's row window
                out = []
                for ctx in engine:
                    window, lo = ctx.col_slice if push else ctx.row_slice, fleet.base[ctx.rank]
                    cells = slice(lo + window.start, lo + window.stop)
                    out.append(np.count_nonzero(state[cells] != prev[cells]))
                return out

            n_updated = int(dense_exchange(engine, name, program.direction, op, changed))
            rows = np.flatnonzero(fleet.row_mask)
            rows = rows[fleet.stacked(name)[fleet.row_mask] != prev[fleet.row_mask]]
        if program.use_queue:
            updated = fleet.split(rows)
            s.active = updated if push else per_rank_propagate_active_pull(engine, updated)

        policy.observe(n_updated)
        s.done = n_updated == 0 or (
            program.max_iterations is not None and s.iteration >= program.max_iterations
        )
        engine.superstep_boundary(tag, saved)

    return engine.gather(name), s.iteration


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
#: "CxR": tall, wide, square, non-divisible, and the paper's 256 ranks
GRIDS = {
    "1x4": Grid2D(R=4, C=1),
    "4x1": Grid2D(R=1, C=4),
    "2x2": Grid2D(R=2, C=2),
    "2x4": Grid2D(R=4, C=2),
    "3x5": Grid2D(R=5, C=3),
    "4x4": Grid2D(R=4, C=4),
    "16x16": Grid2D(R=16, C=16),
}


def _programs(engine: Engine) -> dict[str, VertexProgram]:
    """The five Fig. 6 CC schedules and SSSP, as their entry points
    build them."""
    perm = engine.partition.perm
    programs = {
        f"cc{variant}": VertexProgram(name="cc", init=lambda orig: perm[orig], **kw)
        for variant, kw in CC_VARIANTS.items()
    }
    programs["sssp"] = VertexProgram(
        name="dist",
        init=lambda gids: np.where(gids == 0, 0.0, np.inf),
        along_edge=lambda dist, weights: dist + weights,
        mode="sparse",
        work_per_edge=1.5,
    )
    return programs


class _Boundaries:
    """Records the encoded queue of every superstep's checkpoint (the
    loop state a checkpoint would keep, called at every boundary)."""

    def __init__(self, engine: Engine):
        self.queues: list = []
        boundary = engine.superstep_boundary

        def record(tag, state=None):
            self.queues.append(state()["active"])
            return boundary(tag, state)

        engine.superstep_boundary = record


def _assert_same_run(graph, grid, overlap, which, monkeypatch=None):
    stacked = Engine(graph, grid=grid, overlap=overlap)
    oracle = Engine(graph, grid=grid, overlap=overlap)
    got_queues, want_queues = _Boundaries(stacked), _Boundaries(oracle)
    got = run_vertex_program(stacked, _programs(stacked)[which], tag="t")
    values, iterations = per_rank_run_vertex_program(oracle, _programs(oracle)[which], "t")
    assert got.values.tobytes() == values.tobytes()
    assert got.iterations == iterations
    assert stacked.clocks.lanes.tobytes() == oracle.clocks.lanes.tobytes()
    assert stacked.counters.summary() == oracle.counters.summary()
    assert len(got_queues.queues) == len(want_queues.queues) == iterations
    for a, b in zip(got_queues.queues, want_queues.queues):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return got


@pytest.fixture(scope="module")
def graph():
    return rmat(8, seed=11).with_random_weights(seed=5)


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
@pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
@pytest.mark.parametrize("which", [f"cc{v}" for v in CC_VARIANTS] + ["sssp"])
def test_stacked_loop_equals_per_rank_oracle(graph, grid, overlap, which):
    _assert_same_run(graph, grid, overlap, which)


@pytest.mark.parametrize("which", ["cc+All+Push", "cc+SP+SW+VQ", "sssp"])
@pytest.mark.parametrize("shape", ["path-1x1", "rmat-2x2"])
def test_sources_are_read_as_the_superstep_began(monkeypatch, shape, which):
    """With a tiny edge budget a diagonal rank's edges span many
    expansion slices, and its row and column windows share LIDs: a
    source an earlier slice already lowered must still send the value
    it held when the superstep began (on a path, reading the new one
    carries a label several hops in one superstep)."""
    if shape == "path-1x1":
        graph, grid = path_graph(40).with_random_weights(seed=3), Grid2D(R=1, C=1)
    else:
        graph, grid = rmat(6, seed=2).with_random_weights(seed=3), Grid2D(R=2, C=2)
    monkeypatch.setattr(fleet_mod, "EXPAND_EDGE_BUDGET", 4)
    fleet = Engine(graph, grid=grid).fleet
    per_slice = [
        np.unique(owner[ex.entry])
        for owner, ex in fleet.expand(np.flatnonzero(fleet.row_mask))
    ]
    for rank in range(grid.n_ranks):
        id_r, id_c = grid.coords(rank)
        if id_r == id_c:
            assert sum(rank in ranks for ranks in per_slice) > 1  # spans slices
    _assert_same_run(graph, grid, False, which)


@pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
def test_propagate_active_pull_equals_per_rank_oracle(graph, grid):
    """Per-rank queues in any order within a rank (a complex reduction
    hands its changed rows over in received order)."""
    stacked, oracle = Engine(graph, grid=grid), Engine(graph, grid=grid)
    rng = np.random.default_rng(2)
    queues = [
        rng.permutation(ctx.row_lids())[: rng.integers(0, ctx.localmap.n_row + 1)]
        for ctx in stacked
    ]
    for engine in (stacked, oracle):
        engine.reset_timers()
    got = propagate_active_pull(stacked, stacked.fleet.stack(queues)[0])
    want = per_rank_propagate_active_pull(oracle, queues)
    assert got.dtype == np.int64 and np.array_equal(got, stacked.fleet.stack(want)[0])
    assert stacked.clocks.lanes.tobytes() == oracle.clocks.lanes.tobytes()
    assert stacked.counters.summary() == oracle.counters.summary()
