"""Generic vertex-program API tests (paper Alg. 1 generalization).

Expresses known algorithms as two-line programs and cross-validates
them against both the dedicated entry points — exactly: values,
modeled clocks and counters — and the serial references — the
executable form of the paper's generality claim.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import connected_components, sssp
from repro.algorithms.components import component_answer
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.core.program import VertexProgram, run_vertex_program
from repro.graph import rmat
from repro.reference import serial

from ..conftest import GRIDS, random_graph, watch_convergence


def cc_program(engine, **kw) -> VertexProgram:
    """CC's key: each vertex starts with its relabeled GID."""
    return VertexProgram(
        name="cc_prog",
        init=lambda orig: engine.partition.perm[orig].astype(np.float64),
        op="min",
        **kw,
    )


def run_cc_program(engine, **kw):
    """The program's run with CC's uncharged answer pass applied."""
    res = run_vertex_program(engine, cc_program(engine, **kw))
    return replace(res, values=component_answer(res.values.astype(np.int64)))


def sssp_program(root: int, **kw) -> VertexProgram:
    return VertexProgram(
        name="sssp_prog",
        init=lambda gids: np.where(gids == root, 0.0, np.inf),
        along_edge=lambda vals, w: vals + w,
        op="min",
        **kw,
    )


def assert_same_run(prog, dedicated):
    """Same answer, same modeled machine: bit for bit."""
    assert np.array_equal(prog.values, dedicated.values)
    assert prog.iterations == dedicated.iterations
    assert prog.timings == dedicated.timings  # total/compute/comm/overlap/marks
    assert prog.counters == dedicated.counters


#: tall, wide, non-divisible; the single-column grid is where a hidden
#: convergence flag shows in the exposed time
SCHEDULE_GRIDS = [Grid2D(R=4, C=1), Grid2D(R=2, C=4), Grid2D(R=3, C=5)]


def widest_path_program(root: int) -> VertexProgram:
    """Maximum-bottleneck path capacity from the root (a max-min
    program none of the dedicated algorithms implement)."""
    return VertexProgram(
        name="widest",
        init=lambda gids: np.where(gids == root, np.inf, -np.inf),
        along_edge=lambda vals, w: np.minimum(vals, w),
        op="max",
    )


class TestCCAsProgram:
    @pytest.mark.parametrize("grid", GRIDS[:5], ids=lambda g: f"{g.C}x{g.R}")
    def test_matches_dedicated_cc(self, rmat_graph, grid):
        prog_res = run_cc_program(Engine(rmat_graph, grid=grid))
        dedicated = connected_components(Engine(rmat_graph, grid=grid))
        assert_same_run(prog_res, dedicated)

    @pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
    @pytest.mark.parametrize("use_queue", [False, True], ids=["scan", "queue"])
    @pytest.mark.parametrize("mode", ["dense", "sparse", "switch"])
    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_every_schedule_is_the_dedicated_run(
        self, rmat_graph, direction, mode, use_queue, overlap
    ):
        schedule = dict(direction=direction, mode=mode, use_queue=use_queue)
        for grid in SCHEDULE_GRIDS:
            prog = run_cc_program(
                Engine(rmat_graph, grid=grid, overlap=overlap), **schedule
            )
            dedicated = connected_components(
                Engine(rmat_graph, grid=grid, overlap=overlap), **schedule
            )
            assert_same_run(prog, dedicated)

    @pytest.mark.parametrize("direction", ["push", "pull"])
    @pytest.mark.parametrize("mode", ["dense", "sparse", "switch"])
    def test_all_configurations(self, rmat_graph, direction, mode):
        engine = Engine(rmat_graph, 4)
        res = run_vertex_program(engine, cc_program(engine, direction=direction, mode=mode))
        assert np.array_equal(
            serial.canonical_labels(res.values.astype(np.int64)),
            serial.canonical_labels(serial.connected_components(rmat_graph)),
        )

    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_spelled_out_carry_is_the_default(self, rmat_graph, direction):
        """``along_edge=None`` skips the weight gather; a program that
        spells the carry out reads the weights and runs the same."""
        g = rmat_graph.with_random_weights(seed=2, low=0.1, high=1.0)
        engine = Engine(g, 4)
        spelled = run_vertex_program(
            engine,
            cc_program(engine, direction=direction, along_edge=lambda vals, w: vals),
        )
        engine = Engine(g, 4)
        default = run_vertex_program(engine, cc_program(engine, direction=direction))
        assert_same_run(spelled, default)


class TestSSSPAsProgram:
    def test_matches_dedicated_sssp(self, rmat_graph):
        g = rmat_graph.with_random_weights(seed=2, low=0.1, high=1.0)
        for grid, overlap, root in itertools.product(
            SCHEDULE_GRIDS, (False, True), (0, 17)
        ):
            prog = run_vertex_program(
                Engine(g, grid=grid, overlap=overlap),
                sssp_program(root, mode="sparse", work_per_edge=1.5),
            )
            dedicated = sssp(Engine(g, grid=grid, overlap=overlap), root=root)
            assert_same_run(prog, dedicated)

    @pytest.mark.parametrize("direction", ["push", "pull"])
    @pytest.mark.parametrize("mode", ["dense", "sparse", "switch"])
    def test_all_configurations(self, direction, mode):
        """A pull has no frontier to start from: every row pulls."""
        g = random_graph(7, n_max=60).with_random_weights(seed=1)
        res = run_vertex_program(
            Engine(g, 4), sssp_program(root=0, direction=direction, mode=mode)
        )
        ref = serial.sssp_distances(g, 0)
        assert np.array_equal(np.isfinite(res.values), np.isfinite(ref))
        assert np.allclose(res.values[np.isfinite(ref)], ref[np.isfinite(ref)])

    def test_matches_dijkstra(self):
        for seed in range(3):
            g = random_graph(seed + 5, n_max=60).with_random_weights(seed=seed)
            res = run_vertex_program(Engine(g, 4), sssp_program(root=0))
            ref = serial.sssp_distances(g, 0)
            finite = np.isfinite(ref)
            assert np.array_equal(np.isfinite(res.values), finite)
            assert np.allclose(res.values[finite], ref[finite])


class TestNovelPrograms:
    def test_widest_path(self):
        """A program with no dedicated implementation: verify against a
        simple serial fixpoint."""
        g = rmat(7, seed=9).with_random_weights(seed=4)
        res = run_vertex_program(Engine(g, 4), widest_path_program(root=0))

        # serial max-min fixpoint
        n = g.n_vertices
        cap = np.full(n, -np.inf)
        cap[0] = np.inf
        src = np.repeat(np.arange(n), g.degrees())
        while True:
            cand = np.minimum(cap[src], g.weights)
            new = cap.copy()
            np.maximum.at(new, g.indices, cand)
            if np.array_equal(new, cap):
                break
            cap = new
        assert np.array_equal(np.isfinite(res.values), np.isfinite(cap))
        both = np.isfinite(cap) & (cap != np.inf)
        assert np.allclose(res.values[both], cap[both])

    def test_max_reachable_id(self, rmat_graph):
        """'Largest vertex id in my component' — the op="max" mirror of
        CC, checked against the serial component structure."""
        prog = VertexProgram(
            name="maxid",
            init=lambda gids: gids.astype(np.float64),
            op="max",
        )
        res = run_vertex_program(Engine(rmat_graph, 4), prog)
        comp = serial.connected_components(rmat_graph)
        for c in np.unique(comp):
            members = np.flatnonzero(comp == c)
            assert np.all(res.values[members] == members.max())


class TestDriver:
    @pytest.mark.parametrize("grid", SCHEDULE_GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_push_starts_from_the_vertices_that_hold_a_value(self, grid):
        """The initial active queue is derived from the initial state:
        rows still at the op's identity have nothing to send, so the
        first superstep expands the root's edges only."""
        g = rmat(7, seed=9).with_random_weights(seed=4)
        root = 5
        engine = Engine(g, grid=grid)
        queued, edges = [], []
        charge_edges = engine.charge_edges

        def spy(rank, degrees, **kw):
            queued.append(len(degrees))
            edges.append(int(np.sum(degrees)))
            charge_edges(rank, degrees, **kw)

        engine.charge_edges = spy
        prog = widest_path_program(root)
        prog.max_iterations = 1
        run_vertex_program(engine, prog)
        # the root sits in the row window of each of its row group's R ranks
        assert sum(queued) == grid.R
        assert sum(edges) == g.degrees()[root]

    @pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
    def test_dense_convergence_flag_is_split_phase_on_an_overlapped_engine(
        self, rmat_graph, overlap
    ):
        """A dense pull superstep learns its update count from the
        exchange's column-group Broadcast stage, as each member's
        row-window tail, on a blocking and on an overlapped engine
        alike: no AllReduce stage follows the dense exchange in that
        superstep."""
        engine = Engine(rmat_graph, grid=Grid2D(R=2, C=4), overlap=overlap)
        calls = watch_convergence(engine)
        res = run_vertex_program(
            engine, cc_program(engine, direction="pull", mode="dense", use_queue=True)
        )
        columns = [ranks for _, ranks in engine.col_groups()]
        rode = [("grouped_broadcast_stage", columns)]
        assert [c["stages"] for c in calls] == [rode] * res.iterations
        assert not any(
            "allreduce" in stage for c in calls for stage in c["after"]
        ), [c["after"] for c in calls]
        assert [c["value"] for c in calls][-1] == 0


class TestValidation:
    def test_sum_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            VertexProgram(
                name="x",
                init=lambda g: g,
                op="sum",
            )

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            VertexProgram(
                name="x",
                init=lambda g: g,
                direction="sideways",
            )

    def test_max_iterations(self, rmat_graph):
        engine = Engine(rmat_graph, 4)
        res = run_vertex_program(engine, cc_program(engine, max_iterations=1))
        assert res.iterations == 1


@pytest.mark.parametrize("algo", ["cc", "pagerank"])
def test_empty_graph_gives_empty_answer(algo):
    """No vertices: an empty answer and zero modeled time (the switch
    policy, which needs a vertex, is never built)."""
    from repro.algorithms import pagerank
    from repro.graph import Graph

    engine = Engine(Graph.from_edges([], [], 0), grid=Grid2D(R=2, C=2))
    run = connected_components if algo == "cc" else pagerank
    res = run(engine)
    assert res.values.size == 0
    assert res.iterations == 0
    assert res.timings.total == 0.0
    assert engine.counters.total_serial_messages == 0
