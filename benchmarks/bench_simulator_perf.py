"""Simulator micro-benchmarks (real wall time, pytest-benchmark).

Unlike the figure benches (which report *modeled* time from a single
deterministic run), these measure the actual wall-clock performance of
the library's hot primitives with statistical repeats — a regression
baseline for anyone changing the vectorized kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import partition_2d, rmat
from repro.kernels import scatter_reduce, scatter_reduce_reference
from repro.patterns import dense_pull, sparse_push
from repro.queueing import expand_csr, manhattan_schedule


@pytest.fixture(scope="module")
def big_graph():
    return rmat(14, seed=1)


@pytest.fixture(scope="module")
def engine16(big_graph):
    return Engine(big_graph, 16)


class TestPrimitivePerf:
    def test_perf_partition_2d(self, benchmark, big_graph):
        grid = Grid2D(4, 4)
        part = benchmark(lambda: partition_2d(big_graph, grid))
        assert part.n_edges == big_graph.n_edges

    def test_perf_frontier_expansion(self, benchmark, big_graph):
        rows = np.arange(big_graph.n_vertices, dtype=np.int64)
        ex = benchmark(
            lambda: expand_csr(big_graph.indptr, big_graph.indices, rows)
        )
        assert ex.dst.size == big_graph.n_edges

    def test_perf_manhattan_schedule(self, benchmark, big_graph):
        degs = big_graph.degrees()
        stats = benchmark(lambda: manhattan_schedule(degs))
        assert stats.total_edges == big_graph.n_edges

    def test_perf_dense_pull(self, benchmark, engine16):
        # idempotent op so repeated benchmark rounds don't overflow
        engine16.alloc("x", np.float64, fill=1.0)

        def run():
            dense_pull(engine16, "x", op="min")

        benchmark(run)

    def test_perf_sparse_push(self, benchmark, engine16):
        engine16.alloc("y", np.float64, fill=10.0)
        rng = np.random.default_rng(0)
        queues = []
        for ctx in engine16:
            cs = ctx.col_slice
            k = (cs.stop - cs.start) // 10
            queues.append(
                np.sort(rng.choice(np.arange(cs.start, cs.stop), k, replace=False))
            )

        def run():
            sparse_push(engine16, "y", queues, op="min")

        benchmark(run)

    def test_perf_rmat_generation(self, benchmark):
        g = benchmark(lambda: rmat(12, seed=7))
        assert g.n_vertices == 4096


class TestScatterReducePerf:
    """The fused kernel vs the legacy unique/copy/.at/compare idiom."""

    @pytest.fixture(scope="class")
    def edge_scatter(self, big_graph):
        rng = np.random.default_rng(0)
        lids = big_graph.indices.astype(np.int64)
        vals = rng.random(lids.size)
        state = np.empty(big_graph.n_vertices)
        return state, lids, vals

    def test_perf_scatter_reduce_dense(self, benchmark, edge_scatter):
        state, lids, vals = edge_scatter

        def run():
            state[...] = np.inf
            return scatter_reduce(state, lids, vals, "min")

        changed = benchmark(run)
        assert changed.size > 0

    def test_perf_scatter_reduce_reference(self, benchmark, edge_scatter):
        state, lids, vals = edge_scatter

        def run():
            state[...] = np.inf
            return scatter_reduce_reference(state, lids, vals, "min")

        changed = benchmark(run)
        assert changed.size > 0

    def test_perf_scatter_reduce_sparse(self, benchmark, big_graph):
        # a small frontier against a large state: unique-bookkeeping path
        rng = np.random.default_rng(1)
        n = big_graph.n_vertices
        state = np.full(n, np.inf)
        lids = rng.integers(0, n, size=n // 100)
        vals = rng.random(lids.size)

        def run():
            state[...] = np.inf
            return scatter_reduce(state, lids, vals, "min")

        benchmark(run)

    def test_perf_scatter_reduce_sum(self, benchmark, edge_scatter):
        state, lids, vals = edge_scatter

        def run():
            state[...] = 0.0
            return scatter_reduce(state, lids, vals, "sum")

        benchmark(run)
