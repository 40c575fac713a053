"""SSSP (extension algorithm) tests."""

import numpy as np
import pytest

from repro.algorithms import sssp
from repro.algorithms.batch import sssp_batch
from repro.core.engine import Engine
from repro.graph import Graph, rmat
from repro.reference.graphs import path_graph
from repro.reference import serial

from ..conftest import GRIDS, random_graph


def _weighted(g, seed=1):
    return g.with_random_weights(seed=seed, low=0.1, high=1.0)


def _match(values, ref):
    return np.allclose(
        np.where(np.isfinite(values), values, -1.0),
        np.where(np.isfinite(ref), ref, -1.0),
    )


class TestCorrectness:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_matches_dijkstra_all_grids(self, rmat_graph, grid):
        g = _weighted(rmat_graph)
        res = sssp(Engine(g, grid=grid), root=0)
        assert _match(res.values, serial.sssp_distances(g, 0))

    @pytest.mark.parametrize("root", [0, 17, 200])
    def test_various_roots(self, rmat_graph, root):
        g = _weighted(rmat_graph)
        res = sssp(Engine(g, 4), root=root)
        assert _match(res.values, serial.sssp_distances(g, root))

    def test_root_distance_zero(self, rmat_graph):
        g = _weighted(rmat_graph)
        res = sssp(Engine(g, 4), root=5)
        assert res.values[5] == 0.0

    def test_unreachable_infinite(self):
        g = Graph.from_edges([0], [1], 4, weights=[0.5])
        res = sssp(Engine(g, 4), root=0)
        assert res.values[1] == 0.5
        assert not np.isfinite(res.values[2])
        assert res.extra["n_reached"] == 2

    def test_path_distances_accumulate(self):
        g = _weighted(path_graph(12), seed=4)
        res = sssp(Engine(g, 4), root=0)
        assert _match(res.values, serial.sssp_distances(g, 0))
        assert np.all(np.diff(res.values) > 0)  # monotone along the path

    def test_unweighted_rejected(self, rmat_graph):
        with pytest.raises(ValueError):
            sssp(Engine(rmat_graph, 4), root=0)

    def test_bad_root(self, rmat_graph):
        g = _weighted(rmat_graph)
        with pytest.raises(ValueError):
            sssp(Engine(g, 4), root=10**9)

    def test_random_graph_sweep(self):
        for seed in range(5):
            g = _weighted(random_graph(seed + 41, n_max=80), seed=seed)
            root = seed % g.n_vertices
            res = sssp(Engine(g, 4), root=root)
            assert _match(res.values, serial.sssp_distances(g, root))


class TestBehaviour:
    def test_uses_sparse_pattern(self, rmat_graph):
        g = _weighted(rmat_graph)
        res = sssp(Engine(g, 4), root=0)
        assert res.counters["allgatherv"]["calls"] > 0

    def test_max_iterations(self):
        g = _weighted(path_graph(50), seed=2)
        res = sssp(Engine(g, 4), root=0, max_iterations=3)
        assert res.iterations == 3


ENTRY_POINTS = {
    "sssp": lambda engine: sssp(engine, root=0).values,
    "sssp_batch": lambda engine: sssp_batch(engine, [0, 2]).values[:, 0],
}


class TestWeightValidation:
    """On a symmetric graph one negative edge is a negative 2-cycle:
    label correcting would lower distances forever."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_negative_weight_rejected_instead_of_spinning(self, entry):
        g = Graph.from_edges([0, 1, 2], [1, 2, 3], 5, weights=[0.5, -0.25, 1.0])
        with pytest.raises(ValueError, match=r"non-negative edge weights.*-0\.25"):
            ENTRY_POINTS[entry](Engine(g, 4))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_zero_weights_pass(self, entry):
        g = Graph.from_edges([0, 1, 2], [1, 2, 3], 5, weights=[0.0, 0.0, 1.5])
        dist = ENTRY_POINTS[entry](Engine(g, 4))
        assert dist.tolist() == [0.0, 0.0, 0.0, 1.5, np.inf]
