"""CSR graph container tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.reference.graphs import path_graph

from ..conftest import permute


class TestConstruction:
    def test_from_edges_symmetrizes(self):
        g = Graph.from_edges([0], [1], 2)
        assert g.n_edges == 2
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [0]

    def test_no_symmetrize(self):
        g = Graph.from_edges([0], [1], 2, symmetrize=False)
        assert g.n_edges == 1
        assert list(g.neighbors(1)) == []

    def test_self_loops_removed(self):
        g = Graph.from_edges([0, 1], [0, 1], 2)
        assert g.n_edges == 0

    def test_self_loops_kept_when_asked(self):
        g = Graph.from_edges(
            [0], [0], 1, remove_self_loops=False, symmetrize=False
        )
        assert g.n_edges == 1

    def test_duplicates_merged(self):
        g = Graph.from_edges([0, 0, 0], [1, 1, 1], 2)
        assert g.n_edges == 2

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges([0], [5], 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges([0, 1], [1], 3)

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            Graph(indptr=np.array([1, 2]), indices=np.array([0]))
        with pytest.raises(ValueError):
            Graph(indptr=np.array([0, 2, 1]), indices=np.array([0, 1]))

    def test_empty_graph(self):
        g = Graph.from_edges([], [], 5)
        assert g.n_vertices == 5
        assert g.n_edges == 0
        assert g.degrees().sum() == 0


class TestWeights:
    def test_weights_follow_edges(self):
        g = Graph.from_edges([0, 1], [1, 2], 3, weights=[0.5, 0.25])
        assert g.is_weighted
        w01 = g.edge_weights(0)[list(g.neighbors(0)).index(1)]
        assert w01 == 0.5

    def test_symmetrized_weights_match_both_directions(self):
        g = Graph.from_edges([0], [1], 2, weights=[0.7])
        assert g.edge_weights(0)[0] == g.edge_weights(1)[0] == 0.7

    def test_duplicate_weighted_edges_keep_max(self):
        g = Graph.from_edges([0, 0], [1, 1], 2, weights=[0.2, 0.9])
        assert g.edge_weights(0)[0] == 0.9

    def test_random_weights_symmetric(self):
        g = path_graph(50).with_random_weights(seed=3)
        for v in range(50):
            for i, u in enumerate(g.neighbors(v)):
                w_vu = g.edge_weights(v)[i]
                back = list(g.neighbors(u)).index(v)
                assert g.edge_weights(u)[back] == w_vu

    def test_random_weights_deterministic(self):
        a = path_graph(20).with_random_weights(seed=3)
        b = path_graph(20).with_random_weights(seed=3)
        assert np.array_equal(a.weights, b.weights)

    def test_unweighted_weight_access_raises(self):
        with pytest.raises(ValueError):
            path_graph(3).edge_weights(0)

    def test_mismatched_weight_length(self):
        with pytest.raises(ValueError):
            Graph.from_edges([0], [1], 2, weights=[0.1, 0.2])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 10_000),
)
def test_property_symmetry_and_bounds(n, seed):
    """Every from_edges graph is symmetric with in-range adjacency."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 4 * n))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    g = Graph.from_edges(src, dst, n)
    mat = g.to_scipy()
    assert (mat != mat.T).nnz == 0  # symmetric
    if g.n_edges:
        assert g.indices.min() >= 0 and g.indices.max() < n
    # degrees match indptr diffs
    assert np.array_equal(g.degrees(), np.diff(g.indptr))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 1000))
def test_property_permute_isomorphism(n, seed):
    """Permutation preserves the edge multiset under relabeling (the
    reference ``tests.conftest.permute`` other tests check partitions
    against)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3 * n))
    g = Graph.from_edges(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m), n
    )
    perm = rng.permutation(n)
    h = permute(g, perm)
    assert h.n_edges == g.n_edges
    for v in range(n):
        expect = np.sort(perm[g.neighbors(v)])
        got = np.sort(h.neighbors(perm[v]))
        assert np.array_equal(expect, got)


class TestScipyExportSafety:
    def test_mutating_export_does_not_corrupt_weights(self):
        """Regression: scipy idioms like ``mat.data[:] = 1.0`` must not
        write through into the graph's weight array."""
        g = path_graph(6).with_random_weights(seed=1)
        before = g.weights.copy()
        mat = g.to_scipy()
        mat.data[:] = 1.0
        assert np.array_equal(g.weights, before)
