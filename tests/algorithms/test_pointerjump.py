"""Pointer jumping (packet swapping) tests."""

import numpy as np
import pytest

from repro.algorithms import pointer_jumping
from repro.core.engine import Engine
from repro.graph import Graph
from repro.reference import serial
from repro.reference.graphs import grid_graph, path_graph, star_graph
from repro.reference.serial import initial_parents

from ..conftest import GRIDS, random_graph


class TestInitialForest:
    def test_min_neighbor_rule(self):
        g = path_graph(4)
        parents = initial_parents(g)
        # 0 is a local minimum (root); others point down the path
        assert parents.tolist() == [0, 0, 1, 2]

    def test_acyclic(self, rmat_graph):
        parents = initial_parents(rmat_graph)
        v = np.arange(rmat_graph.n_vertices)
        assert np.all(parents <= v)  # strictly decreasing or root

    def test_isolated_vertices_are_roots(self):
        g = Graph.from_edges([0], [1], 4)
        parents = initial_parents(g)
        assert parents[2] == 2 and parents[3] == 3


class TestDistributedRoots:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_matches_serial_all_grids(self, rmat_graph, grid):
        ref = serial.pointer_jumping_roots(initial_parents(rmat_graph))
        res = pointer_jumping(Engine(rmat_graph, grid=grid))
        assert np.array_equal(res.values, ref)

    def test_connected_graph_single_root(self):
        g = grid_graph(7, 7)
        res = pointer_jumping(Engine(g, 4))
        # min-neighbor forests on a connected lattice converge to
        # vertex 0's tree... only if the forest is a single tree; check
        # against the serial chase instead of assuming.
        ref = serial.pointer_jumping_roots(initial_parents(g))
        assert np.array_equal(res.values, ref)
        assert res.extra["n_roots"] == np.unique(ref).size

    def test_star_two_iterations(self):
        g = star_graph(64)
        res = pointer_jumping(Engine(g, 4))
        assert np.all(res.values == 0)

    def test_long_path_logarithmic_iterations(self):
        g = path_graph(256)
        res = pointer_jumping(Engine(g, 4))
        assert np.all(res.values == 0)
        # pointer doubling: ~log2(depth) + termination rounds
        assert res.iterations <= 12

    def test_roots_point_to_themselves(self, rmat_graph):
        res = pointer_jumping(Engine(rmat_graph, 4))
        roots = np.unique(res.values)
        assert np.array_equal(res.values[roots], roots)

    def test_random_graph_sweep(self):
        for seed in range(5):
            g = random_graph(seed + 53, n_max=130)
            ref = serial.pointer_jumping_roots(initial_parents(g))
            res = pointer_jumping(Engine(g, 4))
            assert np.array_equal(res.values, ref)

    def test_roots_refine_components(self, rmat_graph):
        """Every tree lives inside one connected component."""
        res = pointer_jumping(Engine(rmat_graph, 4))
        cc = serial.connected_components(rmat_graph)
        for v in range(0, rmat_graph.n_vertices, 17):
            assert cc[res.values[v]] == cc[v]

    def test_max_iterations(self):
        g = path_graph(200)
        res = pointer_jumping(Engine(g, 4), max_iterations=2)
        assert res.iterations == 2
