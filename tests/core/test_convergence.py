"""Convergence counts and global degrees without an all-rank exchange.

``Engine.reduce_partials`` reduces per-rank row-window partials to the
global value the loop reads, over whichever layout the cost model
charges less for: a stage of column-group AllReduces (the windows of
one column group partition the vertices) or the one all-rank call.
``Fleet.global_degrees`` is graph structure, built once per fleet
without a collective, and ``Fleet.cell_degrees`` lays it out on every
cell of every rank.
"""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.baselines import cc_1d, cc_15d
from repro.comm.grid import Grid2D
from repro.graph import Graph, rmat
from repro.patterns.dense import dense_pull, dense_push
from repro.reference.graphs import path_graph

from ..conftest import watch_convergence

#: (R, C): 1×p, p×1, prime 1×7 / 7×1, both orientations of 8×4, 16×16.
SHAPES = [(1, 16), (16, 1), (1, 7), (7, 1), (8, 4), (4, 8), (16, 16)]


@pytest.mark.parametrize("R,C", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
class TestEveryReducedCountIsTheGlobalCount:
    def test_bfs_bottom_up(self, R, C):
        """Three bottom-up supersteps, the last of which finds nothing."""
        engine = Engine(rmat(10, seed=5), grid=Grid2D(R=R, C=C))
        calls = watch_convergence(engine)
        res = algorithms.bfs(engine, root=0)
        ways = res.extra["directions"]
        bottom_up = [d + 1 for d, way in enumerate(ways) if way == "bottom-up"]
        levels = res.extra["levels"]
        counts = [np.sum(levels == d) for d in bottom_up]
        assert [c["value"] for c in calls] == counts
        assert len(counts) == 3 and counts[-1] == 0

    def test_dense_cc(self, R, C):
        engine = Engine(rmat(9, seed=4), grid=Grid2D(R=R, C=C))
        calls = watch_convergence(engine)
        part = engine.partition
        labels = [part.perm.astype(np.float64)]
        boundary = engine.superstep_boundary

        def snapshot(*args, **kwargs):
            labels.append(engine.gather("cc").copy())
            return boundary(*args, **kwargs)

        engine.superstep_boundary = snapshot
        res = algorithms.connected_components(engine, mode="dense")
        changed = [int(np.sum(a != b)) for a, b in zip(labels, labels[1:])]
        assert [c["value"] for c in calls] == changed
        assert len(calls) == res.iterations and changed[-1] == 0


class TestHostileInputs:
    def test_fewer_vertices_than_ranks(self):
        g = path_graph(5)
        engine = Engine(g, grid=Grid2D(R=4, C=4))
        calls = watch_convergence(engine)
        res = algorithms.connected_components(engine, mode="dense")
        assert np.array_equal(res.values, np.zeros(5, dtype=res.values.dtype))
        assert calls and calls[-1]["value"] == 0
        res = algorithms.bfs(engine, root=2)
        assert res.extra["n_visited"] == 5

    def test_empty_graph(self):
        empty = Graph.from_edges(np.empty(0, np.int64), np.empty(0, np.int64), 0)
        engine = Engine(empty, grid=Grid2D(R=2, C=4))
        assert engine.reduce_partials(np.zeros(8))[0] == 0.0
        assert algorithms.connected_components(engine).values.size == 0
        assert engine.fleet.cell_degrees().size == 0
        assert engine.fleet.global_degrees().size == 0
        assert not engine.counters.by_kind


class TestLayout:
    def test_the_column_stage_on_a_plain_cluster(self):
        engine = Engine(rmat(8, seed=1), grid=Grid2D(R=8, C=4))
        calls = watch_convergence(engine)
        # rank r holds its row group's count, r // 8 + 1
        assert engine.reduce_partials(np.arange(32) // 8 + 1)[0] == 10.0
        columns = [ranks for _, ranks in engine.col_groups()]
        assert calls[0]["stages"] == [("allreduce_stage", columns)]
        assert engine.counters.by_kind["allreduce"].calls == 8

    def test_a_1xp_grid_keeps_the_all_rank_call(self):
        engine = Engine(rmat(8, seed=1), grid=Grid2D(R=1, C=6))
        calls = watch_convergence(engine)
        assert engine.reduce_partials([1, 2, 3, 4, 5, 6], op="max")[0] == 6.0
        assert calls[0]["stages"] == [("allreduce_stage", [list(range(6))])]

    def test_the_all_rank_call_takes_one_column_group(self):
        """When the all-rank call is the cheaper layout, the ranks
        outside the first column group contribute nothing: each row
        window counts once."""
        engine = Engine(rmat(8, seed=1), grid=Grid2D(R=2, C=2))
        everyone = [0, 1, 2, 3]
        engine._reduction_layouts[("rows", 8)] = ([everyone], 1)
        # rank r holds its row group's count: 5 for rows 0, 7 for rows 1
        assert engine.reduce_partials([5, 5, 7, 7])[0] == 12.0
        assert engine.reduce_partials([5, 5, 7, 7], op="max")[0] == 7.0
        assert engine.reduce_partials([1, 2, 3, 4], over="ranks")[0] == 10.0

    def test_disjoint_partials_always_span_every_rank(self):
        engine = Engine(rmat(8, seed=1), grid=Grid2D(R=4, C=4))
        calls = watch_convergence(engine)
        assert engine.reduce_partials(np.ones(16), over="ranks")[0] == 16.0
        assert calls[0]["stages"] == [("allreduce_stage", [list(range(16))])]

    def test_lane_vectors(self):
        engine = Engine(rmat(8, seed=1), grid=Grid2D(R=2, C=4))
        partials = np.array([[r // 2, 1.0] for r in range(8)])
        value, _ = engine.reduce_partials(partials)
        assert value.tolist() == [6.0, 4.0]

    def test_rejects_other_ops(self):
        engine = Engine(rmat(8, seed=1), grid=Grid2D(R=2, C=2))
        with pytest.raises(ValueError, match="op"):
            engine.reduce_partials(np.ones(4), op="min")
        with pytest.raises(ValueError, match="over"):
            engine.reduce_partials(np.ones(4), over="cols")


#: ``cc_1d`` / ``cc_15d`` on ``rmat(9, seed=2)`` over ``Grid2D(R=1,
#: C=16)``, recorded while their convergence flag was a hand-built
#: all-rank MAX AllReduce of the global count: the 1×p grid's one
#: column group is that call, so nothing may move.
ONED_PINS = {
    "cc_1d": (
        ["0x1.74651ac5368edp-8", "0x1.629c2c70f7391p-13", "0x1.694f5789b24e8p-8"],
        {"calls": 5, "serial_messages": 150, "transfers": 2400, "bytes": 1200},
        {"calls": 10, "serial_messages": 2400, "transfers": 2400, "bytes": 206016},
    ),
    "cc_15d": (
        ["0x1.670c4d8ac1da0p-8", "0x1.22201bdfbaf1ap-13", "0x1.5dfb2a4fac323p-8"],
        {"calls": 8, "serial_messages": 240, "transfers": 3840, "bytes": 9600},
        {"calls": 8, "serial_messages": 1920, "transfers": 1920, "bytes": 359552},
    ),
}


@pytest.mark.parametrize("name", sorted(ONED_PINS))
def test_1d_baselines_are_bit_identical_on_1xp(name):
    run = {"cc_1d": cc_1d, "cc_15d": cc_15d}[name]
    res = run(Engine(rmat(9, seed=2), grid=Grid2D(R=1, C=16)))
    timings, allreduce, alltoallv = ONED_PINS[name]
    t = res.timings
    assert [float(x).hex() for x in (t.total, t.compute, t.comm)] == timings
    assert res.counters == {"allreduce": allreduce, "alltoallv": alltoallv}
    assert alltoallv["serial_messages"] == alltoallv["calls"] * 16 * 15


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("R,C", [(4, 4), (8, 4), (1, 6)], ids=["4x4", "8x4", "1x6"])
def test_global_degrees_equal_the_dense_exchange_bit_for_bit(R, C, weighted):
    """The structural table holds exactly what a dense pull (SUM) of the
    local degrees delivers, on every cell of every rank, and building
    it issues no collective and charges no modeled time."""
    from repro.kernels import csr_pull

    engine = Engine(rmat(10, seed=6).with_random_weights(seed=6), grid=Grid2D(R=R, C=C))
    fleet = engine.fleet
    engine.reset_timers()
    got = fleet.cell_degrees(weighted)
    assert not engine.counters.by_kind
    assert engine.clocks.snapshot().total == 0.0

    engine.alloc("ref", np.float64)
    fleet.stacked("ref")[...] = (
        csr_pull(fleet.csr(weighted=True), np.ones(fleet.size), "sum")
        if weighted
        else fleet.local_degrees()
    )
    dense_pull(engine, "ref", op="sum")
    assert got.tobytes() == fleet.stacked("ref").tobytes()
    assert not fleet.global_degrees(weighted).flags.writeable
    assert not got.flags.writeable and fleet.cell_degrees(weighted) is got


@pytest.mark.parametrize("R,C", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
def test_a_push_count_is_taken_over_the_column_windows(R, C):
    """Between a dense push's stages only the column windows are final,
    so their changed cells, summed over each row group as the
    Broadcasts' tail, are the global count; the row windows (a pull's
    axis) are stale there, and a push that summed their counts would
    read another number."""
    engine = Engine(rmat(9, seed=4), grid=Grid2D(R=R, C=C))
    fleet, n = engine.fleet, engine.partition.n_vertices
    engine.alloc("x", np.float64, fill=np.inf)
    rng = np.random.default_rng(R * 100 + C)
    # every column cell of a third of the vertices receives a candidate
    (_, _), (cols, i) = fleet.cells_of(np.arange(n))
    hit = rng.random(n) < 1 / 3
    pushed = np.full(fleet.size, np.inf)
    pushed[cols[hit[i]]] = rng.integers(0, 9, size=int(hit[i].sum()))
    before = np.full(fleet.size, np.inf)
    got = {}
    for axis in ("col", "row"):
        fleet.stacked("x")[...] = pushed
        got[axis] = dense_push(
            engine, "x", "min", count=lambda s: fleet.window_counts(s != before, axis)
        )
        assert int(np.sum(engine.gather("x") != np.inf)) == hit.sum()
    assert got["col"] == hit.sum()
    # on a p x 1 grid every rank's row window spans its column window's
    # LIDs (one row group covers every vertex), so either axis reads it
    row_lo, row_hi = fleet.row_start - fleet.row_gid_shift, fleet.row_stop - fleet.row_gid_shift
    col_lo, col_hi = fleet.col_start - fleet.col_gid_shift, fleet.col_stop - fleet.col_gid_shift
    spans = bool(np.all((row_lo <= col_lo) & (col_hi <= row_hi)))
    assert (got["row"] == hit.sum()) == spans == (C == 1)
