"""The stacked vertex-program loop and ``propagate_active_pull`` held to
per-rank oracles written from their definitions.

The loop's oracle is one Jacobi step per superstep over every edge, in
NumPy: each edge carries its source's value as the superstep began
(``VertexProgram.along_edge`` applied), the op folds the arrivals into
the target, and the run stops after the first superstep that changes
nothing.  The run must take that many supersteps and end at that
fixpoint; each superstep must leave every rank's row and column
windows at that step's values, and its checkpoint keeping the queue
the loop's docstring says: the vertices that moved (a push), the
vertices next to one that moved (a pull with a queue) or every vertex
(a pull without one), as the row-group leaders' original ids, each
leader's ascending.  Checked for the five ``CC_VARIANTS`` and SSSP, on
blocking and overlapped engines, over tall, wide, non-divisible and
256-rank grids.  The clock lanes are pinned by
``tests/golden_clocks.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import CC_VARIANTS
from repro.comm.grid import Grid2D
from repro.core import fleet as fleet_mod
from repro.core.engine import Engine
from repro.core.program import VertexProgram, run_vertex_program
from repro.graph import rmat
from repro.reference.graphs import path_graph

from ..patterns.test_sparse import hold_propagate_active_pull_to_its_dues
from .test_program import cc_program, sssp_program

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
    programs = {f"cc{v}": cc_program(engine, **kw) for v, kw in CC_VARIANTS.items()}
    programs["sssp"] = sssp_program(0, mode="sparse", work_per_edge=1.5)
    return programs


def jacobi_supersteps(graph, program: VertexProgram) -> list:
    """The program's supersteps as Jacobi steps over every edge, in
    original vertex order: ``(values, moved)`` after each, up to and
    including the first that moves nothing."""
    fold = {"min": np.minimum, "max": np.maximum}[program.op]
    src = np.repeat(np.arange(graph.n_vertices), graph.degrees())
    dst = graph.indices.astype(np.int64)
    values = np.asarray(program.init(np.arange(graph.n_vertices)), dtype=np.float64)
    steps = []
    while not steps or steps[-1][1].size:
        carried = values[src]
        if program.along_edge is not None:
            carried = program.along_edge(carried, graph.weights)
        new = values.copy()
        fold.at(new, dst, carried)
        steps.append((new, np.flatnonzero(new != values)))
        values = new
    return steps


def neighbors_of(graph, moved: np.ndarray) -> np.ndarray:
    """The vertices with a neighbor in ``moved`` (original ids), ascending."""
    hit = np.zeros(graph.n_vertices, dtype=bool)
    hit[moved] = True
    src = np.repeat(np.arange(graph.n_vertices), graph.degrees())
    return np.unique(src[hit[graph.indices]])


def encoded_queue(engine: Engine, queued: np.ndarray) -> np.ndarray:
    """A queue of the vertices ``queued`` (original ids) as a checkpoint
    keeps it: the row-group leaders' row vertices of it, leaders in rank
    order, each leader's ascending by relabeled GID, as original ids."""
    part, grid = engine.partition, engine.grid
    gids = np.sort(part.perm[queued].astype(np.int64))
    parts = []
    for leader in sorted(grid.row_group_ranks(i)[0] for i in range(grid.C)):
        lm = engine.ctx(leader).localmap
        parts.append(gids[(gids >= lm.row_start) & (gids < lm.row_stop)])
    return part.original_gid(np.concatenate(parts))


def expected_queue(engine: Engine, program: VertexProgram, moved: np.ndarray) -> np.ndarray:
    """What a superstep's checkpoint keeps as the queue after ``moved``
    (original ids) moved."""
    if not program.use_queue:
        return encoded_queue(engine, np.arange(engine.graph.n_vertices))
    if program.direction == "push":
        return encoded_queue(engine, moved)
    return encoded_queue(engine, neighbors_of(engine.graph, moved))


def _assert_per_rank_oracle(graph, grid, overlap, which):
    engine = Engine(graph, grid=grid, overlap=overlap)
    program = _programs(engine)[which]
    steps = jacobi_supersteps(graph, program)
    seen = []
    boundary = engine.superstep_boundary

    def record(tag, state=None):
        seen.append((state()["active"], [ctx.get(program.name).copy() for ctx in engine]))
        return boundary(tag, state)

    engine.superstep_boundary = record
    got = run_vertex_program(engine, program, tag="t")
    assert got.values.tobytes() == steps[-1][0].tobytes()
    assert got.iterations == len(steps) == len(seen)
    for k, ((queue, states), (values, moved)) in enumerate(zip(seen, steps)):
        assert_windows_hold(engine, states, values, k)
        want = expected_queue(engine, program, moved)
        assert queue.dtype == want.dtype and queue.tolist() == want.tolist(), k


def assert_windows_hold(engine: Engine, states: list, values: np.ndarray, step=None):
    """Every rank's row and column windows of ``states`` (one local
    array per rank) hold ``values`` (original vertex order)."""
    relabeled = engine.partition.to_relabeled_order(np.asarray(values, dtype=np.float64))
    for ctx, state in zip(engine, states):
        lm = ctx.localmap
        rows, cols = relabeled[lm.row_start : lm.row_stop], relabeled[lm.col_start : lm.col_stop]
        assert state[lm.row_slice].tobytes() == rows.tobytes(), (step, ctx.rank)
        assert state[lm.col_slice].tobytes() == cols.tobytes(), (step, ctx.rank)


@pytest.fixture(scope="module")
def graph():
    return rmat(8, seed=11).with_random_weights(seed=5)


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
@pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
@pytest.mark.parametrize("which", [f"cc{v}" for v in CC_VARIANTS] + ["sssp"])
def test_stacked_loop_equals_per_rank_oracle(graph, grid, overlap, which):
    _assert_per_rank_oracle(graph, grid, overlap, which)


@pytest.mark.parametrize("which", ["cc+All+Push", "cc+SP+SW+VQ", "sssp"])
@pytest.mark.parametrize("shape", ["path-1x1", "rmat-2x2"])
def test_sources_are_read_as_the_superstep_began(monkeypatch, shape, which):
    """With a tiny edge budget a diagonal rank's edges span many
    expansion slices, and its row and column windows share LIDs: a
    source an earlier slice already lowered must still send the value
    it held when the superstep began, so one superstep is one Jacobi
    step over every edge (on a path, reading the new value would carry
    a label several hops)."""
    if shape == "path-1x1":
        graph, grid = path_graph(40).with_random_weights(seed=3), Grid2D(R=1, C=1)
    else:
        graph, grid = rmat(6, seed=2).with_random_weights(seed=3), Grid2D(R=2, C=2)
    monkeypatch.setattr(fleet_mod, "EXPAND_EDGE_BUDGET", 4)
    engine = Engine(graph, grid=grid)
    fleet = engine.fleet
    per_slice = [
        np.unique(owner[ex.entry])
        for owner, ex in fleet.expand(np.flatnonzero(fleet.row_mask))
    ]
    for rank in range(grid.n_ranks):
        id_r, id_c = grid.coords(rank)
        if id_r == id_c:
            assert sum(rank in ranks for ranks in per_slice) > 1  # spans slices

    src = np.repeat(np.arange(graph.n_vertices), graph.degrees())
    dst, weights = graph.indices.astype(np.int64), graph.weights
    if which == "sssp":
        program = sssp_program(0, mode="sparse", max_iterations=1)
        init = np.where(np.arange(graph.n_vertices) == 0, 0.0, np.inf)
        carried = init[src] + weights
    else:
        program = cc_program(engine, max_iterations=1, **CC_VARIANTS[which[2:]])
        init = engine.partition.perm.astype(np.float64)
        carried = init[src]
    want = init.copy()
    np.minimum.at(want, dst, carried)  # every edge carries its source's start value
    res = run_vertex_program(engine, program)
    assert res.iterations == 1
    assert res.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
def test_propagate_active_pull_equals_per_rank_oracle(graph, grid):
    """Per-rank queues in any order within a rank (a complex reduction
    hands its changed rows over in received order), on a 256-vertex
    R-MAT graph: what each stage hands each owner, and each rank's
    next queue."""
    engine = Engine(graph, grid=grid)
    engine.reset_timers()
    rng = np.random.default_rng(2)
    queues = [
        rng.permutation(ctx.row_lids())[: rng.integers(0, ctx.localmap.n_row + 1)]
        for ctx in engine
    ]
    hold_propagate_active_pull_to_its_dues(engine, queues)
