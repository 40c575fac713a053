"""Hypothesis property tests over the whole stack.

The central invariant — distributed state == serial state, for ANY
graph, ANY grid, ANY configuration — expressed as generated-input
properties rather than fixed cases.  Kept at modest sizes so the suite
stays fast; the fixed-case tests cover the larger configurations.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine, algorithms
from repro.comm.grid import Grid2D
from repro.graph import Graph
from repro.reference import serial

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def graph_and_grid(draw, weighted=False, n_max=60):
    n = draw(st.integers(2, n_max))
    m = draw(st.integers(0, 4 * n))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    g = Graph.from_edges(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m), n
    )
    if weighted:
        g = g.with_random_weights(seed=seed)
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    return g, Grid2D(R=r, C=c)


class TestDistributedEqualsSerial:
    @settings(**SETTINGS)
    @given(gg=graph_and_grid())
    def test_cc_property(self, gg):
        g, grid = gg
        res = algorithms.connected_components(Engine(g, grid=grid))
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(g)),
        )

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(), direction=st.sampled_from(["push", "pull"]),
           mode=st.sampled_from(["dense", "sparse", "switch"]),
           use_queue=st.booleans())
    def test_cc_all_configurations_property(self, gg, direction, mode, use_queue):
        g, grid = gg
        res = algorithms.connected_components(
            Engine(g, grid=grid), direction=direction, mode=mode, use_queue=use_queue
        )
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(g)),
        )

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(), iters=st.integers(1, 8))
    def test_pagerank_property(self, gg, iters):
        g, grid = gg
        res = algorithms.pagerank(Engine(g, grid=grid), iterations=iters)
        assert np.allclose(res.values, serial.pagerank(g, iters), atol=1e-11)
        assert res.values.sum() == pytest.approx(1.0)

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(), root_seed=st.integers(0, 10**6))
    def test_bfs_property(self, gg, root_seed):
        g, grid = gg
        root = root_seed % g.n_vertices
        res = algorithms.bfs(Engine(g, grid=grid), root=root)
        assert np.array_equal(res.extra["levels"], serial.bfs_levels(g, root))
        assert serial.bfs_parents_valid(g, root, res.values)

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(), iters=st.integers(1, 6))
    def test_label_propagation_property(self, gg, iters):
        g, grid = gg
        res = algorithms.label_propagation(Engine(g, grid=grid), iterations=iters)
        assert np.array_equal(res.values, serial.label_propagation(g, iters))

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(weighted=True, n_max=40))
    def test_matching_property(self, gg):
        g, grid = gg
        res = algorithms.max_weight_matching(Engine(g, grid=grid))
        assert np.array_equal(res.values, serial.locally_dominant_matching(g))
        assert serial.matching_is_valid(g, res.values)

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(n_max=40))
    def test_pointer_jumping_property(self, gg):
        g, grid = gg
        res = algorithms.pointer_jumping(Engine(g, grid=grid))
        ref = serial.pointer_jumping_roots(serial.initial_parents(g))
        assert np.array_equal(res.values, ref)


class TestStructuralProperties:
    @settings(**SETTINGS)
    @given(gg=graph_and_grid())
    def test_matching_subset_of_components(self, gg):
        """Structural relation: PJ roots refine CC components."""
        g, grid = gg
        roots = algorithms.pointer_jumping(Engine(g, grid=grid)).values
        cc = serial.connected_components(g)
        assert np.array_equal(cc[roots], cc[np.arange(g.n_vertices)])

    @settings(**SETTINGS)
    @given(gg=graph_and_grid())
    def test_timings_positive_and_bounded(self, gg):
        g, grid = gg
        res = algorithms.connected_components(Engine(g, grid=grid))
        t = res.timings
        assert t.total > 0
        assert 0 <= t.compute <= t.total + 1e-12
        assert 0 <= t.comm <= t.total + 1e-12

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(weighted=True, n_max=40))
    def test_matching_weight_at_least_heaviest_edge(self, gg):
        """A locally-dominant matching always contains the globally
        heaviest edge, so its weight is at least that edge's weight."""
        g, grid = gg
        if g.n_edges == 0:
            return
        res = algorithms.max_weight_matching(Engine(g, grid=grid))
        assert serial.matching_weight(g, res.values) >= g.weights.max() - 1e-12


class TestExtensionProperties:
    @settings(**SETTINGS)
    @given(gg=graph_and_grid(weighted=True, n_max=40))
    def test_sssp_property(self, gg):
        g, grid = gg
        res = algorithms.sssp(Engine(g, grid=grid), root=0)
        ref = serial.sssp_distances(g, 0)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(res.values), finite)
        assert np.allclose(res.values[finite], ref[finite])

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(n_max=40), seed=st.integers(0, 100))
    def test_coloring_property(self, gg, seed):
        from repro.algorithms.coloring import is_proper_coloring

        g, grid = gg
        res = algorithms.greedy_coloring(Engine(g, grid=grid), seed=seed)
        assert is_proper_coloring(g, res.values)
        # color count never exceeds max degree + 1 (greedy bound)
        assert res.extra["n_colors"] <= int(g.degrees().max(initial=0)) + 1

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(n_max=40))
    def test_kcore_property(self, gg):
        g, grid = gg
        res = algorithms.core_numbers(Engine(g, grid=grid))
        degs = g.degrees()
        # core numbers bounded by degree and monotone under the k-core
        # definition: every vertex with core >= k has >= k neighbors
        # with core >= k
        assert np.all(res.values <= degs)
        cores = res.values
        src = np.repeat(np.arange(g.n_vertices), degs)
        for k in np.unique(cores):
            if k <= 0:
                continue
            in_core = cores >= k
            sub_sel = in_core[src] & in_core[g.indices]
            sub_deg = np.bincount(src[sub_sel], minlength=g.n_vertices)
            assert np.all(sub_deg[in_core] >= k)

    @settings(**SETTINGS)
    @given(gg=graph_and_grid(n_max=25))
    def test_triangle_property(self, gg):
        g, _ = gg
        res = algorithms.triangle_count(Engine(g, 4))
        assert res.extra["n_triangles"] == serial.triangle_count(g)
