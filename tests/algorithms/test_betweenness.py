"""Betweenness centrality (extension algorithm) tests."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.betweenness import betweenness
from repro.core.engine import Engine
from repro.graph import Graph, rmat
from repro.reference.graphs import grid_graph, path_graph, star_graph

from ..conftest import random_graph


def nx_bc(g, normalized=False) -> np.ndarray:
    G = nx.Graph()
    G.add_nodes_from(range(g.n_vertices))
    src = np.repeat(np.arange(g.n_vertices), g.degrees())
    G.add_edges_from(zip(src.tolist(), g.indices.tolist()))
    bc = nx.betweenness_centrality(G, normalized=normalized)
    return np.array([bc[v] for v in range(g.n_vertices)])


class TestExact:
    def test_path_interior_dominates(self):
        g = path_graph(9)
        res = betweenness(Engine(g, 4))
        assert np.allclose(res.values, nx_bc(g))
        assert np.argmax(res.values) == 4  # middle of the path

    def test_star_center_takes_all(self):
        g = star_graph(12)
        res = betweenness(Engine(g, 4))
        assert np.allclose(res.values, nx_bc(g))
        assert res.values[0] == res.values.max()
        assert np.all(res.values[1:] == 0)

    def test_lattice_matches(self):
        g = grid_graph(4, 5)
        res = betweenness(Engine(g, 4))
        assert np.allclose(res.values, nx_bc(g))

    def test_rmat_matches_all_grids(self):
        from repro.comm.grid import Grid2D

        g = rmat(6, seed=2)
        ref = nx_bc(g)
        for grid in [Grid2D(2, 2), Grid2D(3, 2), Grid2D(4, 4)]:
            res = betweenness(Engine(g, grid=grid))
            assert np.allclose(res.values, ref)

    def test_disconnected_graph(self):
        g = Graph.from_edges([0, 1, 3, 4], [1, 2, 4, 5], 6)  # two paths
        res = betweenness(Engine(g, 4))
        assert np.allclose(res.values, nx_bc(g))

    def test_normalized(self):
        g = grid_graph(3, 4)
        res = betweenness(Engine(g, 4), normalized=True)
        assert np.allclose(res.values, nx_bc(g, normalized=True))
        assert res.values.max() <= 1.0

    def test_random_sweep(self):
        for seed in range(3):
            g = random_graph(seed + 17, n_max=40)
            res = betweenness(Engine(g, 4))
            assert np.allclose(res.values, nx_bc(g), atol=1e-9)


class TestSampled:
    def test_subset_of_sources(self):
        g = grid_graph(4, 4)
        res = betweenness(Engine(g, 4), sources=[0, 5, 10])
        assert res.extra["n_sources"] == 3
        assert np.all(res.values >= 0)

    def test_sampling_scales(self):
        g = rmat(7, seed=1)
        exact = betweenness(Engine(g, 4)).values
        approx = betweenness(Engine(g, 4), k_samples=40, seed=1).values
        # sampled estimator correlates strongly with the exact scores
        top_exact = set(np.argsort(exact)[-10:].tolist())
        top_approx = set(np.argsort(approx)[-10:].tolist())
        assert len(top_exact & top_approx) >= 5

    @pytest.mark.parametrize("k", [0, -1, True, 2.0, 2.5, "3"])
    def test_bad_sample_count_is_refused_at_entry(self, k):
        """Zero once divided by zero, a negative count reached NumPy's
        sampler, and a bool or float was taken as a count."""
        engine = Engine(rmat(6, seed=3), 4)
        engine.alloc("kept")
        with pytest.raises(ValueError, match="k_samples"):
            betweenness(engine, k_samples=k)
        assert "kept" in engine.ctx(0).arrays  # refused before the run began

    def test_more_samples_than_vertices_sample_every_vertex(self):
        g = path_graph(6)
        res = betweenness(Engine(g, 1), k_samples=50)
        assert res.extra["n_sources"] == 6
        assert np.allclose(res.values, betweenness(Engine(g, 1)).values)

    def test_sources_and_samples_conflict(self):
        g = path_graph(5)
        with pytest.raises(ValueError):
            betweenness(Engine(g, 1), sources=[0], k_samples=2)

    def test_timings_accumulate_over_sources(self):
        g = path_graph(12)
        one = betweenness(Engine(g, 4), sources=[0])
        three = betweenness(Engine(g, 4), sources=[0, 5, 11])
        assert three.timings.total > one.timings.total
