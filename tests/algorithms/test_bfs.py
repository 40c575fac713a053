"""Direction-optimizing BFS tests."""

import numpy as np
import pytest

from repro.algorithms import bfs, connected_components, sssp
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.core.hooks import BoundaryHook
from repro.graph import Graph
from repro.reference.graphs import grid_graph, path_graph, star_graph
from repro.reference import serial

from ..conftest import GRIDS, random_graph, watch_convergence


class TestCorrectness:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_levels_and_parents_all_grids(self, rmat_graph, grid):
        res = bfs(Engine(rmat_graph, grid=grid), root=0)
        assert np.array_equal(res.extra["levels"], serial.bfs_levels(rmat_graph, 0))
        assert serial.bfs_parents_valid(rmat_graph, 0, res.values)

    @pytest.mark.parametrize("root", [0, 7, 255])
    def test_various_roots(self, rmat_graph, root):
        res = bfs(Engine(rmat_graph, 4), root=root)
        assert np.array_equal(
            res.extra["levels"], serial.bfs_levels(rmat_graph, root)
        )
        assert serial.bfs_parents_valid(rmat_graph, root, res.values)

    def test_root_is_own_parent(self, rmat_graph):
        res = bfs(Engine(rmat_graph, 4), root=3)
        assert res.values[3] == 3
        assert res.extra["levels"][3] == 0

    def test_unreachable_marked(self):
        g = Graph.from_edges([0], [1], 5)  # 2,3,4 unreachable
        res = bfs(Engine(g, 4), root=0)
        assert np.array_equal(res.values[2:], [-1, -1, -1])
        assert np.array_equal(res.extra["levels"][2:], [-1, -1, -1])
        assert res.extra["n_visited"] == 2

    def test_long_path_stays_top_down(self):
        res = bfs(Engine(path_graph(60), 4), root=0)
        assert set(res.extra["directions"]) == {"top-down"}
        assert res.extra["levels"][59] == 59

    def test_star_switches_bottom_up(self):
        res = bfs(Engine(star_graph(300), 4), root=0)
        assert "bottom-up" in res.extra["directions"]
        assert np.all(res.extra["levels"][1:] == 1)

    def test_bad_root(self, rmat_graph):
        with pytest.raises(ValueError):
            bfs(Engine(rmat_graph, 4), root=-1)

    def test_random_graph_sweep(self):
        for seed in range(5):
            g = random_graph(seed + 7, n_max=150)
            root = seed % g.n_vertices
            res = bfs(Engine(g, 4), root=root)
            assert np.array_equal(
                res.extra["levels"], serial.bfs_levels(g, root)
            )
            assert serial.bfs_parents_valid(g, root, res.values)


#: Grids that leave ranks with nothing to do on a small graph: more
#: ranks than vertices, 1xp and px1, a prime rank count.
HOSTILE_GRIDS = [
    Grid2D(R=1, C=7),
    Grid2D(R=7, C=1),
    Grid2D(R=1, C=13),
    Grid2D(R=5, C=3),
    Grid2D(R=4, C=6),
    Grid2D(R=6, C=6),
]


def _hostile_graphs():
    """(name, graph, root): n < p for most grids above, ranks with no
    rows or no edges, a root nobody is adjacent to."""
    yield "isolated-root", Graph.from_edges([1, 2, 3], [2, 3, 4], 9), 0
    yield "single-edge", Graph.from_edges([0], [1], 2), 1
    yield "two-vertices-no-edge", Graph.from_edges([], [], 2), 0
    yield "path", path_graph(11), 5
    yield "star", star_graph(10), 3
    # every edge inside one block: all other ranks hold rows but no edges
    yield "one-block", Graph.from_edges([0, 0, 1], [1, 2, 2], 24), 2
    yield "duplicates-and-loops", Graph.from_edges(
        [0, 0, 0, 1, 2, 2, 5], [1, 1, 0, 2, 3, 3, 5], 8
    ), 0


class _InvariantProbe(BoundaryHook):
    """Asserts the BFS state invariant at every superstep boundary."""

    slot = "invariant-probe"
    phases = ("observe",)

    def __init__(self):
        self.boundaries = 0

    def on_phase(self, phase, engine, boundary):
        parent = engine.fleet.stacked("parent")
        level = engine.fleet.stacked("level")
        unset = np.flatnonzero((parent == np.inf) != (level == np.inf))
        assert unset.size == 0, (boundary.superstep, unset[:8])
        self.boundaries += 1


class TestHostileShapes:
    """The rank-fused passes on shapes where most ranks are empty —
    every case against ``repro.reference.serial``, blocking and
    overlapped."""

    @pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
    @pytest.mark.parametrize("grid", HOSTILE_GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_bfs_matches_reference(self, grid, overlap):
        for name, g, root in _hostile_graphs():
            res = bfs(Engine(g, grid=grid, overlap=overlap), root=root)
            assert np.array_equal(res.extra["levels"], serial.bfs_levels(g, root)), name
            assert serial.bfs_parents_valid(g, root, res.values), name

    @pytest.mark.parametrize("grid", HOSTILE_GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_sparse_exchanges_match_reference(self, grid):
        """CC and SSSP drive ``sparse_push`` / ``sparse_pull`` over the
        same shapes (forced sparse: the switch would go dense)."""
        for name, g, root in _hostile_graphs():
            want = serial.canonical_labels(serial.connected_components(g))
            for direction in ("push", "pull"):
                res = connected_components(
                    Engine(g, grid=grid), direction=direction, mode="sparse"
                )
                assert np.array_equal(serial.canonical_labels(res.values), want), (
                    name,
                    direction,
                )
            gw = g.with_random_weights(seed=3)
            res = sssp(Engine(gw, grid=grid), root=root)
            assert np.array_equal(res.values, serial.sssp_distances(gw, root)), name

    @pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
    @pytest.mark.parametrize("grid", HOSTILE_GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_unvisited_parent_iff_unset_level_at_every_boundary(self, grid, overlap):
        """Top-down supersteps stamp levels from the cells the exchange
        touched, not from a full scan: at every boundary, on every
        stacked cell (row and column windows), ``parent == inf`` exactly
        where ``level == inf`` — checked from a boundary hook."""
        graphs = list(_hostile_graphs()) + [("rmat", random_graph(5, n_max=120), 1)]
        for name, g, root in graphs:
            probe = _InvariantProbe()
            engine = Engine(g, grid=grid, overlap=overlap)
            engine.attach(probe)
            res = bfs(engine, root=root)
            assert probe.boundaries == res.iterations, name
            assert np.array_equal(res.extra["levels"], serial.bfs_levels(g, root)), name

    def test_frontier_empty_on_every_rank(self):
        """An isolated root: the first superstep's frontier expands to
        nothing anywhere, the exchange ships empty queues, the run
        ends with one visited vertex."""
        g = Graph.from_edges([1, 2], [2, 3], 40)
        engine = Engine(g, grid=Grid2D(R=4, C=4))
        res = bfs(engine, root=0)
        assert res.extra["n_visited"] == 1 and res.iterations == 1
        assert np.array_equal(res.values, [0] + [-1] * 39)
        # every rank still paid its (empty) kernels
        assert engine.clocks.compute.min() > 0.0


class TestBehaviour:
    def test_lattice_hybrid_matches(self):
        g = grid_graph(15, 15)
        res = bfs(Engine(g, 9), root=0)
        assert np.array_equal(res.extra["levels"], serial.bfs_levels(g, 0))

    def test_sparse_comms_used(self, rmat_graph):
        res = bfs(Engine(rmat_graph, 4), root=0)
        assert res.counters["allgatherv"]["calls"] > 0

    @pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
    def test_bottom_up_count_is_split_phase_on_an_overlapped_engine(
        self, rmat_graph, overlap
    ):
        """A bottom-up superstep reads its fresh-vertex count from the
        dense pull's column-group Broadcast stage, as each member's
        row-window tail, on a blocking and on an overlapped engine
        alike: no AllReduce stage follows the dense exchange in that
        superstep, and top-down supersteps carry no count."""
        engine = Engine(rmat_graph, grid=Grid2D(R=2, C=4), overlap=overlap)
        calls = watch_convergence(engine)
        res = bfs(engine, root=0)
        ways = res.extra["directions"]
        bottom_up = [d + 1 for d, way in enumerate(ways) if way == "bottom-up"]
        assert bottom_up
        columns = [ranks for _, ranks in engine.col_groups()]
        rode = [("grouped_broadcast_stage", columns)]
        assert [c["stages"] for c in calls] == [rode] * len(bottom_up)
        assert not any(
            "allreduce" in stage for c in calls for stage in c["after"]
        ), [c["after"] for c in calls]
        levels = res.extra["levels"]
        assert [c["value"] for c in calls] == [np.sum(levels == d) for d in bottom_up]

    def test_iterations_equal_eccentricity_plus_one(self):
        g = path_graph(20)
        res = bfs(Engine(g, 4), root=0)
        # 19 productive levels; the run stops once all are visited
        assert res.iterations == 19
