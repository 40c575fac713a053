"""1.5D hybrid-distribution baseline tests."""

import numpy as np
import pytest

from repro.baselines.onefive import OneFiveDEngine, cc_15d, default_hub_threshold
from repro.graph import chung_lu_powerlaw, rmat
from repro.reference.graphs import path_graph, star_graph
from repro.reference import serial

from ..conftest import random_graph


class TestLayout:
    def test_hubs_selected_by_degree(self, rmat_graph):
        eng = OneFiveDEngine(rmat_graph, 4, hub_threshold=50)
        rel = rmat_graph.permute(eng.perm)
        assert np.array_equal(
            eng.hub_gids, np.flatnonzero(rel.degrees() > 50)
        )

    def test_no_hub_in_ghost_directories(self, rmat_graph):
        eng = OneFiveDEngine(rmat_graph, 4)
        for share in eng.shares:
            assert not eng.is_hub[share.ghost_gids].any()

    def test_default_threshold_scales_with_density(self):
        sparse = path_graph(1000)
        dense = chung_lu_powerlaw(1000, 20_000, seed=1)
        assert default_hub_threshold(dense, 4) > default_hub_threshold(sparse, 4)

    def test_hub_ghosts_removed_vs_1d(self):
        """The point of 1.5D: hub sharing shrinks the ghost directory."""
        from repro.baselines import OneDEngine

        g = chung_lu_powerlaw(2000, 30_000, gamma=1.9, seed=2)
        oned = OneDEngine(g, 8)
        onefive = OneFiveDEngine(g, 8)
        assert onefive.n_hubs > 0
        ghosts_1d = sum(p.ghost_gids.size for p in oned.parts)
        ghosts_15d = sum(s.ghost_gids.size for s in onefive.shares)
        assert ghosts_15d < ghosts_1d

    def test_lid_space_partition(self, rmat_graph):
        eng = OneFiveDEngine(rmat_graph, 4)
        share = eng.shares[1]
        lids = eng._lid(share, share.own_gids)
        assert np.array_equal(lids, np.arange(share.own_gids.size))
        hub_lids = eng._lid(share, eng.hub_gids)
        base = share.own_gids.size + share.ghost_gids.size
        assert np.array_equal(hub_lids, base + np.arange(eng.n_hubs))


class TestCC:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_matches_serial(self, rmat_graph, p):
        res = cc_15d(OneFiveDEngine(rmat_graph, p))
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(rmat_graph)),
        )

    def test_star_single_hub(self):
        g = star_graph(200)
        eng = OneFiveDEngine(g, 4)
        res = cc_15d(eng)
        assert res.extra["n_hubs"] == 1
        assert np.unique(res.values).size == 1

    def test_no_hubs_degrades_to_1d(self):
        g = path_graph(40)
        eng = OneFiveDEngine(g, 4)
        assert eng.n_hubs == 0
        res = cc_15d(eng)
        assert np.unique(res.values).size == 1

    def test_threshold_zero_shares_everything(self, rmat_graph):
        eng = OneFiveDEngine(rmat_graph, 2, hub_threshold=0)
        res = cc_15d(eng)
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(rmat_graph)),
        )

    def test_random_sweep(self):
        for seed in range(4):
            g = random_graph(seed + 91, n_max=100)
            res = cc_15d(OneFiveDEngine(g, 4))
            assert np.array_equal(
                serial.canonical_labels(res.values),
                serial.canonical_labels(serial.connected_components(g)),
            )

    def test_max_iterations(self):
        g = path_graph(60)
        res = cc_15d(OneFiveDEngine(g, 4), max_iterations=2)
        assert res.iterations == 2
