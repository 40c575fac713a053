"""Connected components tests: all paper Fig. 6 variants."""

import numpy as np
import pytest

from repro.algorithms import CC_VARIANTS, connected_components
from repro.core.engine import Engine
from repro.graph import Graph, rmat
from repro.reference import serial

from ..conftest import GRIDS, random_graph


def _check(g, engine_kwargs=None, **cc_kwargs):
    engine = Engine(g, **(engine_kwargs or {"n_ranks": 4}))
    res = connected_components(engine, **cc_kwargs)
    ref = serial.canonical_labels(serial.connected_components(g))
    got = serial.canonical_labels(res.values)
    assert np.array_equal(got, ref)
    return res


class TestVariants:
    @pytest.mark.parametrize("name", list(CC_VARIANTS))
    def test_variant_correct(self, rmat_graph, name):
        res = _check(rmat_graph, **CC_VARIANTS[name])
        assert res.iterations >= 1

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_push_switch_queue_all_grids(self, rmat_graph, grid):
        _check(rmat_graph, engine_kwargs={"grid": grid})

    @pytest.mark.parametrize("grid", GRIDS[:4], ids=lambda g: f"{g.C}x{g.R}")
    def test_pull_dense_all_grids(self, rmat_graph, grid):
        _check(
            rmat_graph,
            engine_kwargs={"grid": grid},
            direction="pull",
            mode="dense",
            use_queue=False,
        )

    def test_direction_validation(self, rmat_graph):
        with pytest.raises(ValueError):
            connected_components(Engine(rmat_graph, 4), direction="diagonal")


class TestStructures:
    def test_disconnected_components_found(self):
        # two separate triangles + isolated vertex
        g = Graph.from_edges([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], 7)
        res = _check(g)
        assert res.extra["n_components"] == 3

    def test_single_vertex(self):
        g = Graph.from_edges([], [], 1)
        res = _check(g, engine_kwargs={"n_ranks": 1})
        assert res.extra["n_components"] == 1

    def test_all_isolated(self):
        g = Graph.from_edges([], [], 12)
        res = _check(g)
        assert res.extra["n_components"] == 12
        assert res.iterations == 1  # converges immediately

    def test_labels_are_member_vertices(self, rmat_graph):
        engine = Engine(rmat_graph, 4)
        res = connected_components(engine)
        ref = serial.connected_components(rmat_graph)
        # each label must be a vertex inside its own component
        for v in range(0, rmat_graph.n_vertices, 37):
            assert ref[res.values[v]] == ref[v]

    def test_max_iterations_bounds_work(self):
        from repro.reference.graphs import path_graph

        g = path_graph(100)
        engine = Engine(g, 4)
        res = connected_components(engine, max_iterations=3)
        assert res.iterations == 3


class TestAblationOrdering:
    def test_variants_get_faster_with_optimizations(self):
        """Paper Fig. 6: each added optimization reduces modeled time,
        about an order of magnitude Base -> +All+Push, on a web-like
        input in the paper's (bandwidth-dominated) operating regime."""
        from repro.cluster import AIMOS
        from repro.graph import web_graph

        g = web_graph(8000, 120_000, seed=3)
        cluster = AIMOS.scaled(33e9 / g.n_edges)
        times = {}
        for name, kw in CC_VARIANTS.items():
            engine = Engine(g, 16, cluster=cluster)
            times[name] = connected_components(engine, **kw).timings.total
        order = ["Base", "+SP", "+SP+SW", "+SP+SW+VQ", "+All+Push"]
        for earlier, later in zip(order, order[1:]):
            assert times[later] < times[earlier], (earlier, later, times)
        assert times["+All+Push"] < times["Base"] / 5

    def test_sweep_many_random_graphs(self):
        for seed in range(6):
            g = random_graph(seed, n_max=120)
            _check(g, engine_kwargs={"n_ranks": 4})
