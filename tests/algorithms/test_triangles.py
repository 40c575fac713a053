"""Triangle counting (extension algorithm) tests."""

import numpy as np
import pytest

from repro.algorithms import triangle_count
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.faults import FaultPlan, FaultSpec
from repro.graph import Graph, rmat
from repro.reference.graphs import grid_graph
from repro.reference import serial

from ..conftest import random_graph


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_matches_algebraic_count(self, rmat_graph, p):
        res = triangle_count(Engine(rmat_graph, p))
        assert res.extra["n_triangles"] == serial.triangle_count(rmat_graph)

    def test_single_triangle(self):
        g = Graph.from_edges([0, 1, 2], [1, 2, 0], 3)
        res = triangle_count(Engine(g, 1))
        assert res.extra["n_triangles"] == 1

    def test_triangle_free_lattice(self):
        res = triangle_count(Engine(grid_graph(6, 6), 4))
        assert res.extra["n_triangles"] == 0

    def test_complete_graph(self):
        n = 8
        src, dst = np.triu_indices(n, k=1)
        g = Graph.from_edges(src, dst, n)
        res = triangle_count(Engine(g, 4))
        assert res.extra["n_triangles"] == n * (n - 1) * (n - 2) // 6

    def test_two_disjoint_triangles(self):
        g = Graph.from_edges([0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], 6)
        res = triangle_count(Engine(g, 4))
        assert res.extra["n_triangles"] == 2

    def test_nonsquare_grid_rejected(self, rmat_graph):
        with pytest.raises(ValueError, match="square grid"):
            triangle_count(Engine(rmat_graph, grid=Grid2D(R=4, C=2)))

    def test_random_graph_sweep(self):
        for seed in range(6):
            g = random_graph(seed + 61, n_max=60)
            res = triangle_count(Engine(g, 4))
            assert res.extra["n_triangles"] == serial.triangle_count(g)


class TestBehaviour:
    def test_summa_iterations_equal_grid_side(self, rmat_graph):
        res = triangle_count(Engine(rmat_graph, 16))
        assert res.iterations == 4

    def test_broadcast_volume_recorded(self, rmat_graph):
        engine = Engine(rmat_graph, 4)
        res = triangle_count(engine)
        assert res.counters["broadcast"]["bytes"] > 0

    def test_values_is_none_count_in_extra(self, rmat_graph):
        res = triangle_count(Engine(rmat_graph, 1))
        assert res.values is None
        assert isinstance(res.extra["n_triangles"], int)


#: Triangle counting's modeled clock and counters on the fixture's
#: square grids, recorded before its broadcasts went through the
#: communicator: ``(total, compute, comm)`` as hex floats, and the
#: counter summary.  The move must leave every one byte-identical.
_PINNED = {
    4: (
        ("0x1.70a8698fcf17ep-13", "0x1.6aed72c8b376ap-16", "0x1.47963e30c25eap-13"),
        {
            "allreduce": {"calls": 1, "serial_messages": 6, "transfers": 24, "bytes": 48},
            "broadcast": {"calls": 8, "serial_messages": 8, "transfers": 8, "bytes": 109760},
        },
    ),
    16: (
        ("0x1.87950676348f5p-11", "0x1.291245241e956p-15", "0x1.755f826373752p-11"),
        {
            "allreduce": {"calls": 1, "serial_messages": 30, "transfers": 480, "bytes": 240},
            "broadcast": {"calls": 32, "serial_messages": 96, "transfers": 96, "bytes": 353856},
        },
    ),
    256: (
        ("0x1.1b861ac528edbp-8", "0x1.122a3543eacc9p-13", "0x1.12e4ceec1fc51p-8"),
        {
            "allreduce": {
                "calls": 1, "serial_messages": 510, "transfers": 130560, "bytes": 4080,
            },
            "broadcast": {
                "calls": 512, "serial_messages": 7680, "transfers": 7680, "bytes": 2506560,
            },
        },
    ),
}


class TestPinnedClock:
    @pytest.mark.parametrize("p", sorted(_PINNED))
    def test_modeled_clock_and_counters_are_pinned(self, rmat_graph, p):
        res = triangle_count(Engine(rmat_graph, p))
        times, counters = _PINNED[p]
        t = res.timings
        assert (t.total.hex(), t.compute.hex(), t.comm.hex()) == times
        assert res.counters == counters
        assert res.extra["n_triangles"] == serial.triangle_count(rmat_graph)


class TestFaults:
    def test_broadcast_transient_is_retried(self):
        graph = rmat(9, seed=5)
        clean = triangle_count(Engine(graph, 4))
        engine = Engine(graph, 4)
        engine.attach_faults(
            FaultPlan([FaultSpec("transient", 1, collective="broadcast")])
        )
        res = triangle_count(engine)
        retries = [e for e in engine.fault_events if e["kind"] == "transient"]
        assert [(e["superstep"], e["collective"], e["retries"]) for e in retries] == [
            (1, "broadcast", 1)
        ]
        assert res.timings.recovery > 0.0
        assert res.extra["n_triangles"] == clean.extra["n_triangles"]

    def test_sendrecv_is_not_a_collective(self):
        with pytest.raises(ValueError, match="collective"):
            FaultSpec("transient", 1, collective="sendrecv")
