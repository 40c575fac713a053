"""Jones-Plassmann coloring (extension algorithm) tests."""

import numpy as np
import pytest

from repro.algorithms.coloring import (
    color_priorities,
    greedy_coloring,
    is_proper_coloring,
)
from repro.core.engine import Engine
from repro.graph import Graph, rmat
from repro.reference.graphs import grid_graph, path_graph, star_graph
from repro.reference.serial import serial_jones_plassmann

from ..conftest import GRIDS, random_graph


class TestCorrectness:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_matches_serial_all_grids(self, rmat_graph, grid):
        ref = serial_jones_plassmann(rmat_graph, seed=1)
        res = greedy_coloring(Engine(rmat_graph, grid=grid), seed=1)
        assert np.array_equal(res.values, ref)
        assert is_proper_coloring(rmat_graph, res.values)

    def test_path_needs_few_colors(self):
        res = greedy_coloring(Engine(path_graph(30), 4))
        assert is_proper_coloring(path_graph(30), res.values)
        assert res.extra["n_colors"] <= 3

    def test_star_two_colors(self):
        res = greedy_coloring(Engine(star_graph(25), 4))
        assert res.extra["n_colors"] == 2

    def test_clique_needs_n_colors(self):
        n = 6
        src, dst = np.triu_indices(n, k=1)
        g = Graph.from_edges(src, dst, n)
        res = greedy_coloring(Engine(g, 4))
        assert res.extra["n_colors"] == n
        assert is_proper_coloring(g, res.values)

    def test_lattice_bipartite_bound(self):
        g = grid_graph(6, 6)
        res = greedy_coloring(Engine(g, 4))
        assert is_proper_coloring(g, res.values)
        # greedy on a bipartite lattice stays within a small constant
        assert res.extra["n_colors"] <= 4

    def test_isolated_vertices_colored_zero(self):
        g = Graph.from_edges([0], [1], 5)
        res = greedy_coloring(Engine(g, 4))
        assert np.all(res.values[2:] == 0)
        assert is_proper_coloring(g, res.values)

    def test_seed_changes_coloring_not_validity(self, rmat_graph):
        a = greedy_coloring(Engine(rmat_graph, 4), seed=1)
        b = greedy_coloring(Engine(rmat_graph, 4), seed=2)
        assert is_proper_coloring(rmat_graph, a.values)
        assert is_proper_coloring(rmat_graph, b.values)
        assert not np.array_equal(a.values, b.values)

    def test_random_sweep(self):
        for seed in range(4):
            g = random_graph(seed + 23, n_max=70)
            ref = serial_jones_plassmann(g, seed=seed)
            res = greedy_coloring(Engine(g, 4), seed=seed)
            assert np.array_equal(res.values, ref)


class TestHelpers:
    def test_priorities_unique(self):
        p = color_priorities(100, seed=5)
        assert np.unique(p).size == 100

    def test_proper_coloring_detects_conflicts(self):
        g = path_graph(3)
        assert is_proper_coloring(g, np.array([0, 1, 0]))
        assert not is_proper_coloring(g, np.array([0, 0, 1]))
        assert not is_proper_coloring(g, np.array([0, -1, 0]))

    def test_max_rounds(self, rmat_graph):
        res = greedy_coloring(Engine(rmat_graph, 4), max_rounds=1)
        assert res.iterations == 1
