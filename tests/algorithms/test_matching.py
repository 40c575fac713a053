"""Maximum weight matching tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import max_weight_matching
from repro.algorithms.matching import _heaviest
from repro.core.engine import Engine
from repro.graph import Graph, rmat
from repro.reference.graphs import path_graph
from repro.reference import serial

from ..conftest import GRIDS, random_graph


def _weighted(g, seed=7):
    return g.with_random_weights(seed=seed)


class TestCorrectness:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_matches_serial_all_grids(self, rmat_graph, grid):
        g = _weighted(rmat_graph)
        res = max_weight_matching(Engine(g, grid=grid))
        assert np.array_equal(res.values, serial.locally_dominant_matching(g))

    def test_matching_valid(self, rmat_graph):
        g = _weighted(rmat_graph)
        res = max_weight_matching(Engine(g, 4))
        assert serial.matching_is_valid(g, res.values)

    def test_unweighted_rejected(self, rmat_graph):
        with pytest.raises(ValueError):
            max_weight_matching(Engine(rmat_graph, 4))

    def test_single_edge(self):
        g = Graph.from_edges([0], [1], 2, weights=[0.5])
        res = max_weight_matching(Engine(g, 1))
        assert res.values.tolist() == [1, 0]

    def test_triangle_picks_heaviest(self):
        g = Graph.from_edges([0, 1, 2], [1, 2, 0], 3, weights=[0.9, 0.5, 0.1])
        res = max_weight_matching(Engine(g, 1))
        assert res.values.tolist() == [1, 0, -1]

    def test_path_alternation(self):
        g = _weighted(path_graph(30), seed=2)
        res = max_weight_matching(Engine(g, 4))
        ref = serial.locally_dominant_matching(g)
        assert np.array_equal(res.values, ref)
        assert serial.matching_is_valid(g, res.values)

    def test_random_graph_sweep(self):
        for seed in range(5):
            g = _weighted(random_graph(seed + 11, n_max=90), seed=seed)
            res = max_weight_matching(Engine(g, 4))
            assert np.array_equal(res.values, serial.locally_dominant_matching(g))


class TestApproximationQuality:
    def test_half_approximation_on_paths(self):
        """Locally-dominant matching is a 1/2-approximation; on a path
        an exact solution is computable by DP for comparison."""
        g = _weighted(path_graph(16), seed=5)
        res = max_weight_matching(Engine(g, 4))
        got = serial.matching_weight(g, res.values)

        # DP over the path for the exact maximum weight matching
        w = [
            float(g.edge_weights(v)[list(g.neighbors(v)).index(v + 1)])
            for v in range(15)
        ]
        best = [0.0] * 17
        for i in range(1, 16):
            best[i + 1] = max(best[i], best[i - 1] + w[i - 1])
        assert got >= 0.5 * best[16]

    def test_weight_positive_when_edges_exist(self, rmat_graph):
        g = _weighted(rmat_graph)
        res = max_weight_matching(Engine(g, 4))
        assert serial.matching_weight(g, res.values) > 0


class TestBehaviour:
    def test_rounds_bounded(self, rmat_graph):
        g = _weighted(rmat_graph)
        res = max_weight_matching(Engine(g, 4))
        assert 1 <= res.iterations <= 30

    def test_max_rounds_respected(self, rmat_graph):
        g = _weighted(rmat_graph)
        res = max_weight_matching(Engine(g, 4), max_rounds=1)
        assert res.iterations == 1
        assert serial.matching_is_valid(g, res.values)

    def test_empty_graph(self):
        g = Graph.from_edges([], [], 4, weights=[])
        res = max_weight_matching(Engine(g, 1))
        assert np.all(res.values == -1)


@settings(max_examples=150, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 0.5, np.inf, -np.inf, np.nan]),
                st.floats(-2, 2, allow_nan=False),
            ),
            st.integers(0, 4),
        ),
        max_size=40,
    )
)
def test_heaviest_is_the_last_edge_of_each_row_in_sorted_order(edges):
    """A row's candidate is the last of its edges in ``np.lexsort((nbr,
    w, rows))`` order — NaN weighs most, signed zeros tie, equal
    (weight, neighbor) pairs go to the later edge — for rows that arrive
    grouped, in their order."""
    edges.sort(key=lambda e: e[0])  # stable: each row's edges keep their order
    rows = np.array([e[0] for e in edges], dtype=np.int64)
    w = np.array([e[1] for e in edges], dtype=np.float64)
    nbr = np.array([e[2] for e in edges], dtype=np.int64)
    order = np.lexsort((nbr, w, rows))
    last = np.r_[rows[order][1:] != rows[order][:-1], True] if rows.size else []
    assert np.array_equal(_heaviest(rows, w, nbr), order[last])
