"""Graph transform tests."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.reference.graphs import grid_graph, path_graph
from repro.graph.transforms import induced_subgraph, largest_component
from repro.reference import serial


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self):
        g = path_graph(6)
        sub, keep = induced_subgraph(g, [1, 2, 4])
        assert keep.tolist() == [1, 2, 4]
        # only edge 1-2 survives (4 is detached from the pair)
        assert sub.n_edges == 2
        assert list(sub.neighbors(0)) == [1]
        assert list(sub.neighbors(2)) == []

    def test_weights_carried(self):
        g = path_graph(5).with_random_weights(seed=1)
        sub, keep = induced_subgraph(g, [0, 1])
        assert sub.is_weighted
        assert sub.edge_weights(0)[0] == g.edge_weights(0)[0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(4), [0, 9])

    def test_full_set_is_identity(self, rmat_graph):
        sub, keep = induced_subgraph(rmat_graph, np.arange(rmat_graph.n_vertices))
        assert sub.n_edges == rmat_graph.n_edges
        assert np.array_equal(sub.indptr, rmat_graph.indptr)


class TestLargestComponent:
    def test_extracts_giant(self):
        # two triangles + path of 2: giant is a triangle (tie broken by
        # bincount argmax = first)
        g = Graph.from_edges([0, 1, 2, 3, 4, 5, 6], [1, 2, 0, 4, 5, 3, 7], 8)
        sub, keep = largest_component(g)
        assert sub.n_vertices == 3
        labels = serial.connected_components(sub)
        assert np.unique(labels).size == 1

    def test_connected_graph_unchanged(self):
        g = grid_graph(4, 4)
        sub, keep = largest_component(g)
        assert sub.n_vertices == 16
        assert sub.n_edges == g.n_edges

    def test_algorithms_run_on_component(self, rmat_graph):
        from repro import Engine, algorithms

        sub, keep = largest_component(rmat_graph)
        res = algorithms.bfs(Engine(sub, 4), root=0)
        assert res.extra["n_visited"] == sub.n_vertices  # fully reachable
