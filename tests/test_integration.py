"""Cross-module integration tests.

These exercise whole-system behaviours that no single-module test can:
running the full algorithm suite through one engine, determinism of
results *and* virtual timings, dataset-stand-in pipelines, and the
interaction of distributions, grids, and machine models.
"""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.cluster import AIMOS, ZEPY
from repro.comm.grid import Grid2D
from repro.graph import load, rmat, web_graph
from repro.reference import serial


@pytest.fixture(scope="module")
def weighted_graph():
    return rmat(8, seed=21).with_random_weights(seed=3)


class TestFullSuiteOneEngine:
    def test_all_algorithms_share_an_engine(self, weighted_graph):
        """One engine object can run the entire Table 3 suite in
        sequence; reset_timers isolates the runs."""
        g = weighted_graph
        engine = Engine(g, grid=Grid2D(R=3, C=2))
        root = int(np.argmax(g.degrees()))

        res_bfs = algorithms.bfs(engine, root=root)
        res_pr = algorithms.pagerank(engine, iterations=10)
        res_cc = algorithms.connected_components(engine)
        res_lp = algorithms.label_propagation(engine, iterations=10)
        res_mwm = algorithms.max_weight_matching(engine)
        res_pj = algorithms.pointer_jumping(engine)

        assert serial.bfs_parents_valid(g, root, res_bfs.values)
        assert np.allclose(res_pr.values, serial.pagerank(g, 10), atol=1e-12)
        assert np.array_equal(
            serial.canonical_labels(res_cc.values),
            serial.canonical_labels(serial.connected_components(g)),
        )
        assert np.array_equal(res_lp.values, serial.label_propagation(g, 10))
        assert np.array_equal(
            res_mwm.values, serial.locally_dominant_matching(g)
        )
        assert np.array_equal(
            res_pj.values,
            serial.pointer_jumping_roots(serial.initial_parents(g)),
        )

    def test_reset_isolates_timings(self, weighted_graph):
        engine = Engine(weighted_graph, 4)
        t1 = algorithms.pagerank(engine, iterations=5).timings.total
        t2 = algorithms.pagerank(engine, iterations=5).timings.total
        assert t1 == pytest.approx(t2)


class TestDeterminism:
    def test_results_and_timings_reproducible(self):
        """Identical inputs give bit-identical results and modeled
        times — the property that makes single-round benches valid."""
        def run():
            g = rmat(8, seed=7)
            engine = Engine(g, grid=Grid2D(R=4, C=2))
            res = algorithms.connected_components(engine)
            return res.values.copy(), res.timings.total, res.counters

        v1, t1, c1 = run()
        v2, t2, c2 = run()
        assert np.array_equal(v1, v2)
        assert t1 == t2
        assert c1 == c2

    def test_grid_shape_does_not_change_results(self):
        g = web_graph(500, 3000, seed=11)
        outs = []
        for grid in [Grid2D(1, 1), Grid2D(4, 4), Grid2D(2, 8), Grid2D(8, 2)]:
            engine = Engine(g, grid=grid)
            outs.append(algorithms.label_propagation(engine, iterations=8).values)
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)

    def test_distribution_does_not_change_results(self):
        g = rmat(8, seed=9)
        ref = None
        for dist in ("striped", "random", "block"):
            engine = Engine(g, 4, distribution=dist, seed=5)
            labels = serial.canonical_labels(
                algorithms.connected_components(engine).values
            )
            if ref is None:
                ref = labels
            else:
                assert np.array_equal(labels, ref), dist


class TestMachineModels:
    def test_cluster_changes_time_not_results(self):
        g = rmat(8, seed=13)
        res_v100 = algorithms.pagerank(Engine(g, 4, cluster=AIMOS), iterations=5)
        res_a100 = algorithms.pagerank(Engine(g, 4, cluster=ZEPY), iterations=5)
        assert np.allclose(res_v100.values, res_a100.values)
        # A100s are strictly faster at everything
        assert res_a100.timings.total < res_v100.timings.total

    def test_scaled_cluster_scales_throughput_terms(self):
        """scaled(k) divides exactly the throughput terms: a large
        edge-bound kernel costs ~k x more, while launch overheads and
        latencies stay fixed."""
        from repro.cluster import CostModel, Topology

        base = CostModel(AIMOS.gpu, Topology(AIMOS, 4))
        scaled_cfg = AIMOS.scaled(100)
        scaled = CostModel(scaled_cfg.gpu, Topology(scaled_cfg, 4))
        t_base = base.kernel_time(n_edges=10**8)
        t_scaled = scaled.kernel_time(n_edges=10**8)
        assert t_scaled / t_base == pytest.approx(100, rel=0.01)
        # latency-bound collective barely changes
        a_base = base.allreduce_time([0, 1], 8)
        a_scaled = scaled.allreduce_time([0, 1], 8)
        assert a_scaled / a_base < 1.5

    def test_load_balance_mode_changes_time_not_results(self):
        g = rmat(9, seed=3)
        rm = algorithms.connected_components(Engine(g, 4, load_balance="manhattan"))
        rv = algorithms.connected_components(Engine(g, 4, load_balance="vertex"))
        assert np.array_equal(rm.values, rv.values)
        assert rm.timings.compute < rv.timings.compute


class TestDatasetPipelines:
    @pytest.mark.parametrize("abbr", ["TW", "FR", "CW", "GSH", "WDC"])
    def test_every_standin_runs_cc_correctly(self, abbr):
        ds = load(abbr, target_edges=1 << 13, seed=2)
        engine = Engine(ds.graph, 4)
        res = algorithms.connected_components(engine)
        assert np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(ds.graph)),
        )

    def test_web_standins_have_long_tails(self):
        """The pendant chains must produce the long convergence tails
        that make the paper's queue machinery pay off."""
        ds = load("WDC", target_edges=1 << 14, seed=2)
        engine = Engine(ds.graph, 4)
        res = algorithms.connected_components(engine)
        assert res.iterations > 15

    def test_social_standins_have_short_diameters(self):
        ds = load("TW", target_edges=1 << 14, seed=2)
        engine = Engine(ds.graph, 4)
        res = algorithms.connected_components(engine)
        assert res.iterations < 15


class TestTimingInvariants:
    def test_component_times_bounded_by_total(self, weighted_graph):
        """Per-rank clocks include waiting at group syncs, so the
        reported total may exceed compute + comm — but each component
        (itself a max over ranks) can never exceed the total."""
        engine = Engine(weighted_graph, 4)
        res = algorithms.max_weight_matching(engine)
        t = res.timings
        assert t.total > 0
        assert 0 <= t.compute <= t.total + 1e-12
        assert 0 <= t.comm <= t.total + 1e-12

    def test_iteration_marks_sum_to_total(self, weighted_graph):
        engine = Engine(weighted_graph, 4)
        res = algorithms.pagerank(engine, iterations=6)
        per = res.timings.per_iteration
        assert len(per) == 6
        # cumulative marks: deltas sum to (approximately) the total
        assert sum(p.total for p in per) == pytest.approx(res.timings.total, rel=0.05)

    def test_more_ranks_more_messages(self, weighted_graph):
        small = Engine(weighted_graph, 4)
        algorithms.connected_components(small)
        big = Engine(weighted_graph, 16)
        algorithms.connected_components(big)
        assert (
            big.counters.total_serial_messages
            > small.counters.total_serial_messages
        )
