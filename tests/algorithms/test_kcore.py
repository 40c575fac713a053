"""K-core decomposition (extension algorithm) tests."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import core_numbers
from repro.core.engine import Engine
from repro.graph import Graph, chung_lu_powerlaw
from repro.reference.graphs import grid_graph, path_graph, star_graph
from repro.reference import serial

from ..conftest import GRIDS, random_graph


def nx_core_numbers(g) -> np.ndarray:
    G = nx.Graph()
    G.add_nodes_from(range(g.n_vertices))
    src = np.repeat(np.arange(g.n_vertices), g.degrees())
    G.add_edges_from(zip(src.tolist(), g.indices.tolist()))
    cn = nx.core_number(G)
    return np.array([cn[v] for v in range(g.n_vertices)], dtype=np.int64)


class TestCorrectness:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_matches_networkx_all_grids(self, rmat_graph, grid):
        res = core_numbers(Engine(rmat_graph, grid=grid))
        assert np.array_equal(res.values, nx_core_numbers(rmat_graph))

    def test_path_is_1_core(self):
        res = core_numbers(Engine(path_graph(20), 4))
        assert np.all(res.values == 1)

    def test_star_center_and_leaves(self):
        res = core_numbers(Engine(star_graph(30), 4))
        assert np.all(res.values == 1)  # star is a tree: 1-core everywhere

    def test_lattice_is_2_core(self):
        res = core_numbers(Engine(grid_graph(6, 6), 4))
        ref = nx_core_numbers(grid_graph(6, 6))
        assert np.array_equal(res.values, ref)
        assert res.extra["max_core"] == 2

    def test_clique_core(self):
        n = 7
        src, dst = np.triu_indices(n, k=1)
        g = Graph.from_edges(src, dst, n)
        res = core_numbers(Engine(g, 4))
        assert np.all(res.values == n - 1)

    def test_isolated_vertices_core_zero(self):
        g = Graph.from_edges([0], [1], 5)
        res = core_numbers(Engine(g, 4))
        assert res.values[0] == res.values[1] == 1
        assert np.all(res.values[2:] == 0)

    def test_powerlaw_matches(self):
        g = chung_lu_powerlaw(400, 3000, seed=6)
        res = core_numbers(Engine(g, 4))
        assert np.array_equal(res.values, nx_core_numbers(g))

    def test_random_sweep(self):
        for seed in range(4):
            g = random_graph(seed + 71, n_max=80)
            res = core_numbers(Engine(g, 4))
            assert np.array_equal(res.values, nx_core_numbers(g))


class TestBehaviour:
    def test_monotone_below_degree(self, rmat_graph):
        res = core_numbers(Engine(rmat_graph, 4))
        assert np.all(res.values <= rmat_graph.degrees())

    def test_uses_owner_exchange(self, rmat_graph):
        res = core_numbers(Engine(rmat_graph, 4))
        assert res.counters["alltoallv"]["calls"] > 0

    def test_max_iterations(self):
        g = path_graph(100)
        res = core_numbers(Engine(g, 4), max_iterations=1)
        assert res.iterations == 1
