"""Experiment harness tests."""

import numpy as np
import pytest

from repro.bench import (
    ALGORITHMS,
    ExperimentRow,
    format_rows,
    grid_for,
    make_engine,
    run_algorithm,
    strong_scaling,
    weak_scaling,
)
from repro.cluster import ZEPY
from repro.core.engine import Engine
from repro.graph import load, rmat


class TestGridFor:
    def test_paper_rank_counts(self):
        assert (grid_for(256).R, grid_for(256).C) == (16, 16)
        assert (grid_for(200).R, grid_for(200).C) == (20, 10)
        assert (grid_for(400).R, grid_for(400).C) == (20, 20)

    def test_falls_back_to_square(self):
        g = grid_for(36)
        assert g.R == g.C == 6

    def test_non_square_counts_use_squarest_factor_pair(self):
        g = grid_for(12)
        assert (g.R, g.C) == (3, 4)
        assert grid_for(7).n_ranks == 7


class TestMakeEngine:
    def test_scales_cluster_by_dataset_factor(self):
        ds = load("TW", target_edges=1 << 13)
        engine = make_engine(ds, 4)
        assert "scaled" in engine.cluster.name
        # rates reduced by the scale factor
        from repro.cluster import AIMOS

        assert engine.cluster.gpu.edge_rate == pytest.approx(
            AIMOS.gpu.edge_rate / ds.scale_factor
        )

    def test_custom_cluster_and_grid(self):
        from repro.comm.grid import Grid2D

        ds = load("FR", target_edges=1 << 12)
        engine = make_engine(ds, 8, cluster=ZEPY, grid=Grid2D(R=4, C=2))
        assert engine.grid.R == 4


class TestRunAlgorithm:
    def test_all_table3_algorithms_registered(self):
        assert set(ALGORITHMS) == {"PR", "CC", "BFS", "LP", "MWM", "PJ"}

    def test_row_fields(self):
        engine = Engine(rmat(7, seed=1), 4)
        row = run_algorithm("CC", engine, experiment="x", dataset="d")
        assert row.algorithm == "CC"
        assert row.n_ranks == 4
        assert row.grid == "2x2"
        assert row.time_total > 0
        assert row.teps > 0

    def test_full_scale_edges_drive_teps(self):
        engine = Engine(rmat(7, seed=1), 4)
        row = run_algorithm("CC", engine, full_scale_edges=10**12)
        assert row.teps == pytest.approx(10**12 / row.time_total)

    def test_unknown_algorithm(self):
        engine = Engine(rmat(6, seed=1), 1)
        with pytest.raises(ValueError):
            run_algorithm("FLOYD", engine)


class TestSweeps:
    def test_strong_scaling_row_shape(self):
        rows = strong_scaling("TW", ["CC"], [1, 4], target_edges=1 << 12)
        assert len(rows) == 2
        assert {r.n_ranks for r in rows} == {1, 4}
        assert all(r.dataset == "TW" for r in rows)

    def test_strong_scaling_weighted_for_mwm(self):
        rows = strong_scaling("TW", ["MWM"], [1], target_edges=1 << 11)
        assert rows[0].iterations >= 1

    def test_weak_scaling_grows_problem(self):
        rows = weak_scaling("RMAT", ["CC"], [1, 4], vertices_per_rank=1 << 8)
        assert rows[0].dataset == "RMAT8"
        assert rows[1].dataset == "RMAT10"

    def test_weak_scaling_unknown_family(self):
        with pytest.raises(ValueError):
            weak_scaling("KRONECKER", ["CC"], [1])


class TestFormatting:
    def test_format_rows_layout(self):
        row = ExperimentRow(
            experiment="e",
            dataset="TW",
            algorithm="CC",
            n_ranks=4,
            grid="2x2",
            time_total=1.0,
            time_compute=0.6,
            time_comm=0.4,
            iterations=3,
            teps=2e9,
        )
        text = format_rows([row], title="T")
        assert "T" in text.splitlines()[0]
        assert "TW" in text
        assert "2.00" in text  # GTEPS column


class TestBfsBatch:
    def test_roots_sampled_from_giant_component(self):
        from repro.bench import sample_bfs_roots
        from repro.graph import Graph
        from repro.reference import serial

        # two triangles + isolated vertices; giant is ambiguous in
        # size, so just assert membership in one component and deg > 0
        g = Graph.from_edges([0, 1, 2, 4, 5, 6], [1, 2, 0, 5, 6, 4], 9)
        roots = sample_bfs_roots(g, k=3, seed=1)
        labels = serial.connected_components(g)
        assert np.unique(labels[roots]).size == 1
        assert np.all(g.degrees()[roots] > 0)

    def test_no_traversable_component(self):
        from repro.bench import sample_bfs_roots
        from repro.graph import Graph

        g = Graph.from_edges([], [], 5)
        with pytest.raises(ValueError):
            sample_bfs_roots(g, k=2)
