"""Triangle counting (extension algorithm) tests."""

import numpy as np
import pytest

from repro.algorithms import triangle_count
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import Graph, rmat
from repro.reference.graphs import grid_graph
from repro.reference import serial

from ..conftest import random_graph


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_matches_algebraic_count(self, rmat_graph, p):
        res = triangle_count(Engine(rmat_graph, p))
        assert res.extra["n_triangles"] == serial.triangle_count(rmat_graph)

    def test_single_triangle(self):
        g = Graph.from_edges([0, 1, 2], [1, 2, 0], 3)
        res = triangle_count(Engine(g, 1))
        assert res.extra["n_triangles"] == 1

    def test_triangle_free_lattice(self):
        res = triangle_count(Engine(grid_graph(6, 6), 4))
        assert res.extra["n_triangles"] == 0

    def test_complete_graph(self):
        n = 8
        src, dst = np.triu_indices(n, k=1)
        g = Graph.from_edges(src, dst, n)
        res = triangle_count(Engine(g, 4))
        assert res.extra["n_triangles"] == n * (n - 1) * (n - 2) // 6

    def test_two_disjoint_triangles(self):
        g = Graph.from_edges([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], 6)
        res = triangle_count(Engine(g, 4))
        assert res.extra["n_triangles"] == 2

    def test_nonsquare_grid_rejected(self, rmat_graph):
        with pytest.raises(ValueError, match="square grid"):
            triangle_count(Engine(rmat_graph, grid=Grid2D(R=4, C=2)))

    def test_random_graph_sweep(self):
        for seed in range(6):
            g = random_graph(seed + 61, n_max=60)
            res = triangle_count(Engine(g, 4))
            assert res.extra["n_triangles"] == serial.triangle_count(g)


class TestBehaviour:
    def test_summa_iterations_equal_grid_side(self, rmat_graph):
        res = triangle_count(Engine(rmat_graph, 16))
        assert res.iterations == 4

    def test_broadcast_volume_recorded(self, rmat_graph):
        engine = Engine(rmat_graph, 4)
        res = triangle_count(engine)
        assert res.counters["broadcast"]["bytes"] > 0

    def test_values_is_none_count_in_extra(self, rmat_graph):
        res = triangle_count(Engine(rmat_graph, 1))
        assert res.values is None
        assert isinstance(res.extra["n_triangles"], int)
