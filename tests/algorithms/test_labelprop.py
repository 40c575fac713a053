"""Label propagation (2.5D) tests."""

import numpy as np
import pytest

from repro.algorithms import label_propagation
from repro.core.engine import Engine
from repro.graph import Graph
from repro.reference.graphs import grid_graph, star_graph
from repro.reference import serial

from ..conftest import GRIDS, random_graph


class TestCorrectness:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_matches_serial_all_grids(self, rmat_graph, grid):
        res = label_propagation(Engine(rmat_graph, grid=grid), iterations=20)
        ref = serial.label_propagation(rmat_graph, iterations=20)
        assert np.array_equal(res.values, ref)

    def test_fewer_iterations(self, rmat_graph):
        res = label_propagation(Engine(rmat_graph, 4), iterations=3)
        ref = serial.label_propagation(rmat_graph, iterations=3)
        assert np.array_equal(res.values, ref)

    def test_isolated_vertices_keep_label(self):
        g = Graph.from_edges([0], [1], 5)
        res = label_propagation(Engine(g, 4), iterations=5)
        assert res.values[2] == 2 and res.values[3] == 3 and res.values[4] == 4

    def test_star_converges_to_min_leaf_dynamics(self):
        g = star_graph(10)
        res = label_propagation(Engine(g, 4), iterations=20)
        ref = serial.label_propagation(g, iterations=20)
        assert np.array_equal(res.values, ref)

    def test_random_graph_sweep(self):
        for seed in range(5):
            g = random_graph(seed + 31, n_max=120)
            res = label_propagation(Engine(g, 4), iterations=10)
            ref = serial.label_propagation(g, iterations=10)
            assert np.array_equal(res.values, ref)


class TestBehaviour:
    def test_communities_found_on_lattice(self):
        g = grid_graph(6, 6)
        res = label_propagation(Engine(g, 4), iterations=20)
        assert 1 <= res.extra["n_communities"] <= g.n_vertices

    def test_early_convergence_stops(self):
        # a triangle settles on label 0 everywhere in 3 iterations
        g = Graph.from_edges([0, 1, 2], [1, 2, 0], 3)
        res = label_propagation(Engine(g, 1), iterations=20)
        assert res.iterations < 20
        assert np.all(res.values == 0)

    def test_owner_exchange_used(self, rmat_graph):
        """2.5D: the histogram exchange is a personalized alltoallv."""
        engine = Engine(rmat_graph, 4)
        res = label_propagation(engine, iterations=5)
        assert res.counters["alltoallv"]["calls"] > 0
