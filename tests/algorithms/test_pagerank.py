"""PageRank tests."""

import math

import numpy as np
import pytest

from repro.algorithms import pagerank
from repro.baselines.spmv import spmv_pagerank
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import Graph, rmat
from repro.reference.graphs import star_graph
from repro.patterns.dense import dense_pull
from repro.reference import serial

from ..conftest import GRIDS, ledger_entries, random_graph


class TestCorrectness:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_matches_serial_all_grids(self, rmat_graph, grid):
        res = pagerank(Engine(rmat_graph, grid=grid), iterations=20)
        ref = serial.pagerank(rmat_graph, iterations=20)
        assert np.allclose(res.values, ref, atol=1e-12)

    def test_mass_conserved(self, rmat_graph):
        res = pagerank(Engine(rmat_graph, 4), iterations=20)
        assert res.values.sum() == pytest.approx(1.0)

    def test_dangling_vertices(self):
        # isolated vertices hold and redistribute mass
        g = Graph.from_edges([0, 1], [1, 2], 6)  # vertices 3-5 dangling
        res = pagerank(Engine(g, 4), iterations=15)
        ref = serial.pagerank(g, iterations=15)
        assert np.allclose(res.values, ref, atol=1e-12)

    def test_star_hub_dominates(self):
        g = star_graph(30)
        res = pagerank(Engine(g, 4), iterations=20)
        assert res.values[0] == res.values.max()

    def test_damping_parameter(self, rmat_graph):
        res = pagerank(Engine(rmat_graph, 4), iterations=10, damping=0.5)
        ref = serial.pagerank(rmat_graph, iterations=10, damping=0.5)
        assert np.allclose(res.values, ref, atol=1e-12)

    def test_random_graph_sweep(self):
        for seed in range(5):
            g = random_graph(seed + 100, n_max=100)
            res = pagerank(Engine(g, 4), iterations=8)
            ref = serial.pagerank(g, iterations=8)
            assert np.allclose(res.values, ref, atol=1e-12)


class TestValidation:
    """A bad iteration count or damping factor is refused, not
    truncated, clamped or run as given."""

    @pytest.mark.parametrize("iterations", [-1, 0, 2.5, True])
    def test_bad_iterations_rejected(self, iterations):
        with pytest.raises(ValueError, match="iterations must be an integer >= 1"):
            pagerank(Engine(rmat(6), 4), iterations=iterations)

    @pytest.mark.parametrize("damping", [1.5, -1.0, float("nan")])
    def test_damping_outside_unit_interval_rejected(self, damping):
        with pytest.raises(ValueError, match="damping"):
            pagerank(Engine(rmat(6), 4), damping=damping)

    @pytest.mark.parametrize("damping", [0.0, 1.0])
    def test_damping_end_points_run(self, damping):
        res = pagerank(Engine(rmat(6), 4), iterations=2, damping=damping)
        assert res.iterations == 2


class TestDegrees:
    def test_global_degrees_via_row_reduce(self, rmat_graph):
        """Paper §3.2: true degree = summed local degrees of the row
        group; verified through the dense pull exchange."""
        engine = Engine(rmat_graph, grid=GRIDS[6])  # 5x3
        table, base = engine.fleet.cell_degrees(), engine.fleet.base
        expect = engine.partition.to_relabeled_order(
            rmat_graph.degrees().astype(float)
        )
        for ctx in engine:
            lm = ctx.localmap
            deg = table[base[ctx.rank] : base[ctx.rank + 1]]
            assert np.array_equal(deg[lm.row_slice], expect[lm.row_start : lm.row_stop])
            assert np.array_equal(deg[lm.col_slice], expect[lm.col_start : lm.col_stop])


class TestAccounting:
    def test_dense_only_communication(self, rmat_graph):
        """PageRank uses dense comms exclusively (paper §3.3.1)."""
        engine = Engine(rmat_graph, 4)
        res = pagerank(engine, iterations=5)
        assert "allgatherv" not in res.counters  # no sparse queues
        assert res.counters["allreduce"]["calls"] > 0

    def test_iteration_marks(self, rmat_graph):
        res = pagerank(Engine(rmat_graph, 4), iterations=7)
        assert len(res.timings.per_iteration) == 7
        assert res.timings.total > 0


def _fold_graph(n: int = 240, seed: int = 4) -> Graph:
    """About a third of the vertices dangling (no edges at all), drawn
    at random so that the vertex ranges hold unequal shares: dangling
    vertices all carry one ``pr`` value, and spread evenly they cannot
    tell a row window's partial from a column window's on a square
    grid."""
    rng = np.random.default_rng(seed)
    live = np.flatnonzero(rng.random(n) > 0.35)
    return Graph.from_edges(rng.choice(live, 4 * n), rng.choice(live, 4 * n), n)


FOLD_GRAPHS = {
    "fold": _fold_graph,
    # fewer vertices than ranks: most windows are empty
    "tiny": lambda: Graph.from_edges([0, 1], [1, 2], 6),
}
#: ``(graph, R, C)``: every grid shape of the golden clocks, and one
#: graph with n < p.
FOLD_CASES = [
    ("fold", 1, 4), ("fold", 4, 1), ("fold", 2, 2), ("fold", 2, 4),
    ("fold", 3, 5), ("fold", 4, 4), ("fold", 16, 16), ("tiny", 4, 4),
]
PAGERANKS = {
    "pagerank": lambda e: pagerank(e, iterations=6),
    "pagerank_tol": lambda e: pagerank(e, iterations=30, tol=1e-4),
    "spmv_pagerank": lambda e: spmv_pagerank(e, iterations=6),
}


class TestDanglingFold:
    """The dangling mass rides the dense pull's row-group AllReduce as
    one tail word per member: each member's partial covers its column
    window, a row group's column windows tile the vertices, so every
    rank receives the global total and no collective of its own is
    issued."""

    @pytest.mark.parametrize("case", FOLD_CASES, ids=lambda c: "%s-%dx%d" % c)
    def test_row_groups_column_windows_tile_the_vertices(self, case):
        name, R, C = case
        engine = Engine(FOLD_GRAPHS[name](), grid=Grid2D(R=R, C=C))
        fleet, n = engine.fleet, engine.partition.n_vertices
        for ranks, _ in fleet.exchange_plan().reduce["row"]:
            seen = np.zeros(n, dtype=np.int64)
            for r in ranks:
                seen[fleet.col_start[r] : fleet.col_stop[r]] += 1
            assert (seen == 1).all(), ranks

    @pytest.mark.parametrize("algo", sorted(PAGERANKS))
    @pytest.mark.parametrize("case", FOLD_CASES, ids=lambda c: "%s-%dx%d" % c)
    def test_fold_is_the_global_dangling_mass(self, case, algo, monkeypatch):
        name, R, C = case
        graph, grid = FOLD_GRAPHS[name](), Grid2D(R=R, C=C)
        engine = Engine(graph, grid=grid)
        dangling = graph.degrees() == 0
        calls, core = [], engine.comm._allreduce_core

        def spy(ranks, buffers, op, nic_sharing):
            # pr is the previous iteration's until the damping update
            want = math.fsum(engine.gather("pr")[dangling]) if op == "sum" else None
            out = core(ranks, buffers, op, nic_sharing)
            tails = [t.copy() for t in buffers[1]] if isinstance(buffers, tuple) else []
            calls.append((tuple(ranks), op, tails, want))
            return out

        monkeypatch.setattr(engine.comm, "_allreduce_core", spy)
        res = PAGERANKS[algo](engine)

        row_groups = {tuple(grid.row_group_ranks(i)) for i in range(grid.C)}
        sums = [c for c in calls if c[1] == "sum"]
        assert len(sums) == res.iterations * grid.C
        for ranks, _, tails, want in sums:
            assert ranks in row_groups  # the dense pull's, never all ranks
            assert len(tails) == len(ranks) and all(t.shape == (1,) for t in tails)
            for t in tails:
                assert t[0] == pytest.approx(want, rel=1e-15, abs=0.0)
        # what else reduces is the tol check's MAX, one stage an iteration
        others = [c for c in calls if c[1] != "sum"]
        assert all(op == "max" and not tails for _, op, tails, _ in others)
        if algo == "pagerank_tol":
            assert len(others) % res.iterations == 0 and others
        else:
            assert not others
        assert res.counters["allreduce"]["calls"] == len(calls)


class TestExtensions:
    def test_personalized_matches_serial(self, rmat_graph):
        rng = np.random.default_rng(1)
        pers = rng.random(rmat_graph.n_vertices)
        res = pagerank(Engine(rmat_graph, 4), iterations=12, personalization=pers)
        ref = serial.pagerank(rmat_graph, 12, personalization=pers)
        assert np.allclose(res.values, ref, atol=1e-12)

    def test_personalization_biases_ranks(self, rmat_graph):
        n = rmat_graph.n_vertices
        pers = np.zeros(n)
        pers[7] = 1.0  # all teleports land on vertex 7
        res = pagerank(Engine(rmat_graph, 4), iterations=20, personalization=pers)
        assert np.argmax(res.values) == 7

    def test_personalization_validation(self, rmat_graph):
        with pytest.raises(ValueError):
            pagerank(Engine(rmat_graph, 4), personalization=np.zeros(3))
        with pytest.raises(ValueError):
            pagerank(
                Engine(rmat_graph, 4),
                personalization=np.zeros(rmat_graph.n_vertices),
            )

    def test_weighted_matches_serial(self, rmat_graph):
        g = rmat_graph.with_random_weights(seed=2)
        res = pagerank(Engine(g, 4), iterations=12, weighted=True)
        ref = serial.pagerank(g, 12, weighted=True)
        assert np.allclose(res.values, ref, atol=1e-12)

    def test_weighted_needs_weights(self, rmat_graph):
        with pytest.raises(ValueError):
            pagerank(Engine(rmat_graph, 4), weighted=True)

    def test_tolerance_early_stop(self, rmat_graph):
        res = pagerank(Engine(rmat_graph, 4), iterations=500, tol=1e-9)
        assert res.iterations < 500
        # the converged vector is a fixed point of further iteration
        more = pagerank(Engine(rmat_graph, 4), iterations=res.iterations + 5)
        assert np.allclose(res.values, more.values, atol=1e-7)

    def test_tolerance_respects_iteration_bound(self, rmat_graph):
        res = pagerank(Engine(rmat_graph, 4), iterations=3, tol=1e-30)
        assert res.iterations == 3


def edge_list_pagerank(
    engine, iterations, damping=0.85, personalization=None, weighted=False, tol=None
):
    """The per-rank edge-list PageRank the CSR pull replaced, kept as
    the oracle: gather ``pr[dst] / deg[dst]`` over the expanded edges,
    ``np.add.at`` it by ``src``, update and take ``max |delta|`` rank
    by rank.  The dangling mass is each rank's sum over the dangling
    cells of its column window (numpy's reduction of the window, as
    ``dangling_partials`` takes it), reduced over row group 0's members
    as the AllReduce reduces a part.  Returns ``(values, iterations run)``."""
    n, grid = engine.partition.n_vertices, engine.grid
    if personalization is not None:
        engine.scatter_global("tele", personalization / personalization.sum())
    engine.alloc("deg")
    engine.fleet.stacked("deg")[...] = engine.fleet.cell_degrees(weighted)
    engine.alloc("pr", np.float64, fill=1.0 / n)
    engine.alloc("acc", np.float64)
    for it in range(1, iterations + 1):
        partials = []
        for ctx in engine:
            pr, deg, acc = ctx.get("pr"), ctx.get("deg"), ctx.get("acc")
            cw = ctx.localmap.col_slice
            held = pr[cw][deg[cw] == 0]
            partials.append(np.add.reduceat(held, [0])[0] if held.size else 0.0)
            acc[...] = 0.0
            ex = ctx.expand(ctx.row_lids())
            src, dst, w = ex.src, ex.dst, ex.weights
            contrib = pr[dst] / np.maximum(deg[dst], 1e-300)
            if weighted:
                contrib = contrib * w
            contrib[deg[dst] == 0] = 0.0
            np.add.at(acc, src, contrib)
        dense_pull(engine, "acc", op="sum")
        words = np.array([[partials[r]] for r in grid.row_group_ranks(0)])
        dangling = float(np.add.reduce(words, axis=0)[0])  # as the AllReduce
        deltas = []
        for ctx in engine:
            pr, acc = ctx.get("pr"), ctx.get("acc")
            if personalization is not None:
                tele = ctx.get("tele")
                new = (1.0 - damping) * tele + damping * (acc + dangling * tele)
            else:
                new = (1.0 - damping) / n + damping * (acc + dangling / n)
            rw = ctx.row_slice
            deltas.append(float(np.abs(new[rw] - pr[rw]).max(initial=0.0)))
            pr[...] = new
        if tol is not None and max(deltas) < tol:
            break
    return engine.gather("pr"), it


class TestCsrPullEqualsEdgeListGather:
    """The stacked CSR pull computes, bit for bit, what the per-rank
    gather + ``np.add.at`` did — every option, every grid."""

    VARIANTS = {
        "plain": {},
        "weighted": {"weighted": True},
        "personalized_tol": {"personalized": True, "tol": 1e-7},
        "weighted_personalized_tol": {
            "weighted": True, "personalized": True, "tol": 1e-5,
        },
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_values_and_stopping_iteration(self, rmat_graph, grid, variant):
        opts = dict(self.VARIANTS[variant])
        graph = rmat_graph.with_random_weights(seed=3)
        if opts.pop("personalized", False):
            v = np.arange(graph.n_vertices)
            opts["personalization"] = (v % 5 == 1) * (1.0 + v % 4)
        got = pagerank(Engine(graph, grid=grid), iterations=40, **opts)
        want, stopped = edge_list_pagerank(Engine(graph, grid=grid), 40, **opts)
        assert got.values.tobytes() == want.tobytes()
        assert got.iterations == stopped
        assert ("tol" in opts) == (stopped < 40)

    @pytest.mark.parametrize("grid", [GRIDS[0], GRIDS[6]], ids=lambda g: f"{g.C}x{g.R}")
    def test_a_second_call_on_the_same_engine_starts_clean(self, rmat_graph, grid):
        """The per-call vertex buffers and the hoisted degree-derived
        operands belong to one call: a run after another — other
        degrees, other teleport vector, other stopping rule — equals
        the frozen formula on a fresh engine, byte for byte."""
        graph = rmat_graph.with_random_weights(seed=3)
        v = np.arange(graph.n_vertices)
        calls = [
            {"weighted": True, "personalization": (v % 5 == 1) * (1.0 + v % 4), "tol": 1e-5},
            {},
            {"personalization": (v % 3 == 0) * 1.0},
            {"weighted": True, "tol": 1e-7},
        ]
        engine = Engine(graph, grid=grid)
        for opts in calls:
            got = pagerank(engine, iterations=40, **opts)
            want, stopped = edge_list_pagerank(Engine(graph, grid=grid), 40, **opts)
            assert got.values.tobytes() == want.tobytes(), sorted(opts)
            assert got.iterations == stopped

    def test_weighted_degrees_are_sequential_row_sums(self, rmat_graph):
        graph = rmat_graph.with_random_weights(seed=3)
        engine = Engine(graph, grid=GRIDS[6])
        # oracle first: the degree table reduces
        for ctx, want in zip(engine, engine.alloc("want")):
            ex = ctx.expand(ctx.row_lids())
            np.add.at(want, ex.src, ex.weights)
        dense_pull(engine, "want", op="sum")
        want = engine.fleet.stacked("want")
        assert engine.fleet.cell_degrees(True).tobytes() == want.tobytes()

    def test_no_edge_list_is_cached_by_a_run(self, rmat_graph):
        engine = Engine(rmat_graph.with_random_weights(seed=3), 4)
        pagerank(engine, iterations=3)
        pagerank(engine, iterations=3, weighted=True)
        for ctx in engine:
            held = ledger_entries(engine.devices, ctx.rank)
            assert "cache.expand_all" not in held
            assert "graph.indices" in held
