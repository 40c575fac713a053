"""Gluon-like (``Engine(profile=GENERIC_PROFILE)``) and SpMV
(CuGraph-like) comparator tests."""

import numpy as np
import pytest

from repro.algorithms import bfs, connected_components, pagerank
from repro.baselines import spmv_bfs, spmv_cc, spmv_engine, spmv_pagerank
from repro.cluster import ZEPY
from repro.cluster.costmodel import GENERIC_PROFILE
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import Graph, rmat
from repro.reference import serial


class TestGluonBaseline:
    def test_same_results_as_ours(self, rmat_graph):
        ours = connected_components(Engine(rmat_graph, 4))
        theirs = connected_components(Engine(rmat_graph, 4, profile=GENERIC_PROFILE))
        assert np.array_equal(
            serial.canonical_labels(ours.values),
            serial.canonical_labels(theirs.values),
        )

    def test_single_rank_parity(self, rmat_graph):
        """Paper Fig. 9: identical compute => parity at one rank."""
        ours = connected_components(Engine(rmat_graph, 1))
        theirs = connected_components(Engine(rmat_graph, 1, profile=GENERIC_PROFILE))
        assert theirs.timings.compute == pytest.approx(ours.timings.compute)

    def test_substrate_overhead_grows_with_scale(self, rmat_graph):
        """Paper Fig. 9: overhead multiplies once the network appears."""
        ratios = {}
        for p in (4, 16):
            ours = connected_components(Engine(rmat_graph, p)).timings.total
            gluon = Engine(rmat_graph, p, profile=GENERIC_PROFILE)
            theirs = connected_components(gluon).timings.total
            ratios[p] = theirs / ours
        assert ratios[16] > ratios[4] > 1.0


class TestSpmvBaseline:
    def test_pagerank_exact(self, rmat_graph):
        res = spmv_pagerank(spmv_engine(rmat_graph, 4), iterations=15)
        assert np.allclose(
            res.values, serial.pagerank(rmat_graph, iterations=15), atol=1e-12
        )

    def test_cc_exact(self, rmat_graph):
        res = spmv_cc(spmv_engine(rmat_graph, 4))
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(rmat_graph)),
        )

    @pytest.mark.parametrize(
        "edges,grid,kw",
        [
            (([], [], 12), Grid2D(R=2, C=2), {}),
            (([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], 9), Grid2D(R=2, C=2), {}),
            (([0, 1], [1, 2], 3), Grid2D(R=4, C=4), {}),
            (None, Grid2D(R=1, C=4), {}),
            (None, Grid2D(R=4, C=1), {}),
            (None, Grid2D(R=1, C=7), {}),
            (None, Grid2D(R=2, C=3), {"distribution": "striped"}),
            (None, Grid2D(R=2, C=3), {"distribution": "random", "seed": 5}),
            (None, Grid2D(R=2, C=3), {"distribution": "block"}),
        ],
        ids=["empty", "isolated", "n<p", "1xp", "px1", "prime-p",
             "striped", "random", "block"],
    )
    def test_one_cc_answer(self, rmat_graph, edges, grid, kw):
        """``spmv_cc`` and ``connected_components`` return the same
        labels: each component's minimum original id."""
        g = rmat_graph if edges is None else Graph.from_edges(*edges)
        ref = serial.canonical_labels(serial.connected_components(g))
        ours = connected_components(Engine(g, grid=grid, **kw)).values
        theirs = spmv_cc(Engine(g, grid=grid, **kw)).values
        assert np.array_equal(ours, ref)
        assert np.array_equal(theirs, ref)

    def test_bfs_levels_exact(self, rmat_graph):
        res = spmv_bfs(spmv_engine(rmat_graph, 4), root=0)
        assert np.array_equal(res.values, serial.bfs_levels(rmat_graph, 0))

    def test_fig10_relation_on_zepy(self):
        """Paper Fig. 10 directions: the LA backend wins PageRank; the
        general model wins CC and BFS."""
        g = rmat(11, seed=6)  # large enough for compute to dominate
        root = int(np.argmax(g.degrees()))
        ours_pr = pagerank(Engine(g, 4, cluster=ZEPY), iterations=20)
        la_pr = spmv_pagerank(spmv_engine(g, 4), iterations=20)
        assert la_pr.timings.total < ours_pr.timings.total

        ours_cc = connected_components(Engine(g, 4, cluster=ZEPY))
        la_cc = spmv_cc(spmv_engine(g, 4))
        assert ours_cc.timings.total < la_cc.timings.total

        ours_bfs = bfs(Engine(g, 4, cluster=ZEPY), root=root)
        la_bfs = spmv_bfs(spmv_engine(g, 4), root=root)
        assert ours_bfs.timings.total < la_bfs.timings.total
