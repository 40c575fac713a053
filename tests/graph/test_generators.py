"""Graph generator tests."""

import numpy as np
import pytest

from repro.graph import chung_lu_powerlaw, erdos_renyi_gnm, rmat, rmat_edges
from repro.reference.graphs import grid_graph, path_graph, star_graph


class TestRMAT:
    def test_sizes(self):
        src, dst, n = rmat_edges(scale=8, edgefactor=16, seed=1)
        assert n == 256
        assert src.size == dst.size == 16 * 256
        assert src.min() >= 0 and src.max() < n

    def test_deterministic(self):
        a = rmat(7, seed=42)
        b = rmat(7, seed=42)
        assert np.array_equal(a.indices, b.indices)

    def test_seed_changes_output(self):
        a = rmat(7, seed=1)
        b = rmat(7, seed=2)
        assert not np.array_equal(a.indptr, b.indptr) or not np.array_equal(
            a.indices, b.indices
        )

    def test_skewed_degrees(self):
        # Graph500 parameters produce heavy degree skew vs. flat RAND.
        g_rmat = rmat(11, seed=1)
        g_rand = erdos_renyi_gnm(2**11, 16 * 2**11, seed=1)
        assert g_rmat.degrees().max() > 3 * g_rand.degrees().max()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            rmat_edges(scale=-1)
        with pytest.raises(ValueError):
            rmat_edges(scale=4, a=0.9, b=0.2, c=0.2)

    def test_scale_zero(self):
        src, dst, n = rmat_edges(scale=0, edgefactor=4)
        assert n == 1
        assert np.all(src == 0) and np.all(dst == 0)


class TestErdosRenyi:
    def test_size_close_to_requested(self):
        g = erdos_renyi_gnm(500, 3000, seed=0)
        assert g.n_vertices == 500
        # symmetrized and deduped: close to 2 * m
        assert 0.8 * 6000 < g.n_edges <= 6000

    def test_deterministic(self):
        a = erdos_renyi_gnm(100, 400, seed=9)
        b = erdos_renyi_gnm(100, 400, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_needs_vertices(self):
        with pytest.raises(ValueError):
            erdos_renyi_gnm(0, 10)


class TestChungLu:
    def test_powerlaw_skew(self):
        g = chung_lu_powerlaw(2000, 16000, gamma=2.0, seed=1)
        degs = np.sort(g.degrees())[::-1]
        # hub should dominate the median by a wide margin
        assert degs[0] > 10 * max(np.median(degs), 1)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            chung_lu_powerlaw(100, 400, gamma=1.0)

    def test_hubs_not_clustered_at_low_ids(self):
        g = chung_lu_powerlaw(1000, 8000, gamma=2.0, seed=3)
        degs = g.degrees()
        top = np.argsort(degs)[-10:]
        assert top.max() > 100  # relabeling spread the hubs out


class TestSmallGraphs:
    def test_path(self):
        g = path_graph(4)
        assert g.n_edges == 6  # 3 undirected edges stored twice
        assert list(g.neighbors(0)) == [1]
        assert sorted(g.neighbors(1)) == [0, 2]

    def test_star(self):
        g = star_graph(5)
        assert g.degrees()[0] == 4
        assert np.all(g.degrees()[1:] == 1)

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n_vertices == 12
        # corner has 2 neighbors, interior 4
        assert g.degrees()[0] == 2
        assert g.degrees()[5] == 4
