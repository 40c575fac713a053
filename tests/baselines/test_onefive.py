"""1.5D hybrid-distribution baseline tests."""

import numpy as np
import pytest

from repro import Engine
from repro.baselines import cc_15d, default_hub_threshold, layout_1d
from repro.baselines.oned import _share_hubs
from repro.comm.grid import Grid2D
from repro.graph import chung_lu_powerlaw, rmat
from repro.reference.graphs import path_graph, star_graph
from repro.reference import serial

from ..conftest import permute, random_graph


def oned(graph, p):
    return Engine(graph, grid=Grid2D(R=1, C=p))


class TestLayout:
    def test_hubs_selected_by_degree(self, rmat_graph):
        eng = oned(rmat_graph, 4)
        layout = layout_1d(eng, hub_threshold=50)
        rel = permute(rmat_graph, eng.partition.perm)
        is_hub = rel.degrees() > 50
        assert np.array_equal(layout.hubs, np.flatnonzero(is_hub))
        # hub-hub edges: every edge between two hubs, kept by the
        # owner of its first endpoint
        mat = rel.to_scipy().tocoo()
        pairs = is_hub[mat.row] & is_hub[mat.col]
        expected = sorted(zip(mat.row[pairs], mat.col[pairs]))
        kept = []
        for r, (src, dst) in enumerate(layout.hub_edges):
            assert layout.owned(r, src).all()
            kept += zip(src, dst)
        assert sorted(kept) == expected

    def test_no_hub_in_ghost_directories(self, rmat_graph):
        layout = layout_1d(oned(rmat_graph, 4), default_hub_threshold(rmat_graph, 4))
        hubs = set(layout.hubs.tolist())
        for rows, ghosts in zip(layout.rows, layout.ghosts):
            assert not hubs & set(ghosts.tolist())
            assert not hubs & set(rows.tolist())

    def test_default_threshold_scales_with_density(self):
        sparse = path_graph(1000)
        dense = chung_lu_powerlaw(1000, 20_000, seed=1)
        assert default_hub_threshold(dense, 4) > default_hub_threshold(sparse, 4)

    def test_hub_ghosts_removed_vs_1d(self):
        """The point of 1.5D: hub sharing shrinks the ghost directory."""
        g = chung_lu_powerlaw(2000, 30_000, gamma=1.9, seed=2)
        eng = oned(g, 8)
        plain = layout_1d(eng)
        shared = layout_1d(eng, default_hub_threshold(g, 8))
        assert shared.hubs.size > 0
        ghosts_1d = sum(gh.size for gh in plain.ghosts)
        ghosts_15d = sum(gh.size for gh in shared.ghosts)
        assert ghosts_15d < ghosts_1d

    def test_lid_space_partition(self, rmat_graph):
        """Each rank's hub buffer is its cells at the hub GIDs, in hub
        order: the AllReduce leaves every rank the per-hub minimum
        there and touches no other cell."""
        eng = oned(rmat_graph, 4)
        hubs = layout_1d(eng, hub_threshold=20).hubs
        assert hubs.size > 1
        states = eng.alloc("cc")
        rng = np.random.default_rng(5)
        for state in states:
            state[:] = rng.permutation(state.size)
        before = [state.copy() for state in states]
        _share_hubs(eng, states, hubs)
        low = np.minimum.reduce([b[hubs] for b in before])
        others = np.setdiff1d(np.arange(rmat_graph.n_vertices), hubs)
        for state, old in zip(states, before):
            assert np.array_equal(state[hubs], low)
            assert np.array_equal(state[others], old[others])
        # one AllReduce of n_hubs float64 cells: 2 (p - 1) transfers
        stats = eng.counters.by_kind["allreduce"]
        assert (stats.calls, stats.bytes) == (1, 2 * 3 * hubs.size * 8)


class TestCC:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_matches_serial(self, rmat_graph, p):
        res = cc_15d(oned(rmat_graph, p))
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(rmat_graph)),
        )

    def test_star_single_hub(self):
        res = cc_15d(oned(star_graph(200), 4))
        assert res.extra["n_hubs"] == 1
        assert np.unique(res.values).size == 1

    def test_no_hubs_degrades_to_1d(self):
        g = path_graph(40)
        eng = oned(g, 4)
        res = cc_15d(eng)
        assert res.extra["n_hubs"] == 0
        assert np.unique(res.values).size == 1

    def test_threshold_zero_shares_everything(self, rmat_graph):
        res = cc_15d(oned(rmat_graph, 2), hub_threshold=0)
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(rmat_graph)),
        )

    def test_random_sweep(self):
        for seed in range(4):
            g = random_graph(seed + 91, n_max=100)
            res = cc_15d(oned(g, 4))
            assert np.array_equal(
                serial.canonical_labels(res.values),
                serial.canonical_labels(serial.connected_components(g)),
            )

    def test_max_iterations(self):
        res = cc_15d(oned(path_graph(60), 4), max_iterations=2)
        assert res.iterations == 2

    def test_second_run_equals_the_first(self):
        engine = oned(rmat(9, seed=2), 4)
        first, second = cc_15d(engine), cc_15d(engine)
        assert second.timings.total == first.timings.total
        assert second.counters == first.counters
