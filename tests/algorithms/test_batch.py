"""Lane-batched multi-source traversal: the bit-identity suite.

The batch contract is strict: lane ``l`` of ``bfs_batch`` /
``sssp_batch`` must reproduce *exactly* the arrays of the
corresponding single-source run — with ``map_ranks`` visiting
the ranks forward and in reverse, with communication overlap on and
off.  Single-source runs are themselves rank-order- and
overlap-invariant (the determinism suite's contract), so each batched
configuration is checked against one fixed blocking reference per root.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    bfs,
    bfs_batch,
    sssp,
    sssp_batch,
    validate_roots,
)
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import rmat
from repro.reference import serial as ref_serial

from ..conftest import rank_order, watch_convergence

RANKS = 16

#: (host rank order, overlap) — the full batched execution matrix (the
#: reversed legs keep the ids of the thread-pool legs they replaced).
MODES = {
    "serial": ("forward", False),
    "serial-overlap": ("forward", True),
    "threads4": ("reversed", False),
    "threads4-overlap": ("reversed", True),
}

ROOT1 = [17]
ROOTS2 = [3, 640]
# Includes vertex 0, which is isolated in this graph: an immediately
# retiring lane must not disturb the others.
ROOTS8 = [0, 3, 17, 42, 100, 256, 513, 640]

# k = 3 and k = 5 are not powers of two: the lane scatters' composite
# index and the pull lanes' (lid, lane) decode take their multiply /
# divide branches there, the shift / mask ones on every other width.
KS = {"k1": ROOT1, "k2": ROOTS2, "k3": ROOTS8[1:4], "k5": ROOTS8[:5], "k8": ROOTS8}

# 16 lanes span two 8-lane words in the bottom-up bitmask scan; the
# second word's chunk offset in the composite scatter index is what
# this set guards (a k<=8 batch never leaves word 0).
ROOTS16 = [0, 3, 9, 17, 33, 42, 77, 100, 128, 256, 300, 401, 513, 640, 700, 901]


#: R x C grids beyond the square default.  On R < C grids the members
#: of a row group sit at different ``row_offset``s (Type 2 local maps),
#: which the row-leader frontier aliasing of ``bfs_batch`` must
#: translate; 1x4 and 4x1 are the degenerate single-group layouts.
GRIDS = {
    "2x4": Grid2D(R=2, C=4),
    "3x5": Grid2D(R=3, C=5),
    "4x8": Grid2D(R=4, C=8),
    "1x4": Grid2D(R=1, C=4),
    "4x1": Grid2D(R=4, C=1),
}


def run_mode(mode: str, batch, graph, *args, grid: Grid2D | None = None, **kwargs):
    """``batch(engine, *args, **kwargs)`` on a fresh engine in ``mode``."""
    order, overlap = MODES[mode]
    if grid is None:
        engine = Engine(graph, RANKS, overlap=overlap)
    else:
        engine = Engine(graph, grid=grid, overlap=overlap)
    with rank_order(order):
        return batch(engine, *args, **kwargs)


@pytest.fixture(scope="module")
def graph():
    return rmat(10, edgefactor=8, seed=5)


@pytest.fixture(scope="module")
def wgraph(graph):
    return graph.with_random_weights(seed=9)


@pytest.fixture(scope="module")
def bfs_refs(graph):
    return {r: bfs(Engine(graph, RANKS), root=r) for r in ROOTS8}


@pytest.fixture(scope="module")
def sssp_refs(wgraph):
    return {r: sssp(Engine(wgraph, RANKS), root=r) for r in ROOTS8}


class TestBFSEquivalence:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("kname", sorted(KS))
    def test_bit_identical_per_lane(self, graph, bfs_refs, mode, kname):
        roots = KS[kname]
        res = run_mode(mode, bfs_batch, graph, roots)
        self._assert_lanes_match(graph, res, roots, bfs_refs)

    @staticmethod
    def _assert_lanes_match(graph, res, roots, singles):
        assert res.values.shape == (graph.n_vertices, len(roots))
        for lane, root in enumerate(roots):
            single = singles[root]
            np.testing.assert_array_equal(
                res.values[:, lane], single.values, strict=True
            )
            np.testing.assert_array_equal(
                res.extra["levels"][:, lane],
                single.extra["levels"],
                strict=True,
            )
            assert res.extra["n_visited"][lane] == single.extra["n_visited"]
            assert res.extra["directions"][lane] == single.extra["directions"]

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("kname", sorted(KS))
    @pytest.mark.parametrize("gname", sorted(GRIDS))
    def test_bit_identical_per_lane_on_nonsquare_grids(
        self, graph, mode, kname, gname
    ):
        """The same k x rank order x overlap matrix on R != C grids: each
        lane matches scalar ``bfs`` on the same grid bit for bit, and
        the serial oracle."""
        roots, grid = KS[kname], GRIDS[gname]
        res = run_mode(mode, bfs_batch, graph, roots, grid=grid)
        singles = {r: bfs(Engine(graph, grid=grid), root=r) for r in roots}
        self._assert_lanes_match(graph, res, roots, singles)
        for lane, root in enumerate(roots):
            np.testing.assert_array_equal(
                res.extra["levels"][:, lane],
                ref_serial.bfs_levels(graph, root),
            )
            assert ref_serial.bfs_parents_valid(
                graph, root, res.values[:, lane]
            )

    @pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
    def test_pull_lane_counts_are_split_phase_on_an_overlapped_engine(
        self, graph, overlap
    ):
        """A superstep with bottom-up lanes reads their per-lane counts
        from the lanes' dense pull, one tail word per live lane on its
        column-group Broadcast stage, on a blocking and on an
        overlapped engine alike: no AllReduce stage follows the dense
        exchange in that superstep."""
        roots = [0, 5, 9]
        engine = Engine(graph, grid=Grid2D(R=2, C=4), overlap=overlap)
        calls = watch_convergence(engine)
        res = bfs_batch(engine, roots)
        depths = max(len(d) for d in res.extra["directions"])
        pull = [
            d + 1
            for d in range(depths)
            if any(log[d : d + 1] == ["bottom-up"] for log in res.extra["directions"])
        ]
        assert pull
        columns = [ranks for _, ranks in engine.col_groups()]
        rode = [("grouped_broadcast_stage", columns)]
        assert [c["stages"] for c in calls] == [rode] * len(pull)
        assert not any(
            "allreduce" in stage for c in calls for stage in c["after"]
        ), [c["after"] for c in calls]
        levels = res.extra["levels"]
        for call, d in zip(calls, pull):
            lanes = [
                j
                for j, log in enumerate(res.extra["directions"])
                if log[d - 1 : d] == ["bottom-up"]
            ]
            assert list(call["value"]) == [np.sum(levels[:, j] == d) for j in lanes]

    def test_k1_degenerates_to_single_source(self, graph, bfs_refs):
        """A batch of one IS the single-source run: values, timings and
        counters all match because the code path delegates."""
        res = bfs_batch(Engine(graph, RANKS), ROOT1)
        single = bfs_refs[ROOT1[0]]
        np.testing.assert_array_equal(res.values[:, 0], single.values)
        assert res.iterations == single.iterations
        assert res.timings.total == single.timings.total
        assert res.counters == single.counters

    def test_k16_multi_chunk_bit_identical(self, graph):
        """k>8 exercises the second uint64 lane word of the bottom-up
        scan; every lane must still match its single-source run."""
        res = bfs_batch(Engine(graph, RANKS), ROOTS16)
        assert any(
            "bottom-up" in dirs for dirs in res.extra["directions"]
        ), "k16 batch never entered the bottom-up scan; guard is vacuous"
        for lane, root in enumerate(ROOTS16):
            single = bfs(Engine(graph, RANKS), root=root)
            np.testing.assert_array_equal(
                res.values[:, lane], single.values, strict=True
            )
            np.testing.assert_array_equal(
                res.extra["levels"][:, lane],
                single.extra["levels"],
                strict=True,
            )

    def test_lanes_against_serial_reference(self, graph):
        res = bfs_batch(Engine(graph, RANKS), ROOTS2)
        for lane, root in enumerate(ROOTS2):
            np.testing.assert_array_equal(
                res.extra["levels"][:, lane],
                ref_serial.bfs_levels(graph, root),
            )
            assert ref_serial.bfs_parents_valid(
                graph, root, res.values[:, lane]
            )


class TestSSSPEquivalence:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("kname", sorted(KS))
    def test_bit_identical_per_lane(self, wgraph, sssp_refs, mode, kname):
        sources = KS[kname]
        res = run_mode(mode, sssp_batch, wgraph, sources)
        assert res.values.shape == (wgraph.n_vertices, len(sources))
        for lane, src in enumerate(sources):
            single = sssp_refs[src]
            np.testing.assert_array_equal(
                res.values[:, lane], single.values, strict=True
            )
            assert res.extra["n_reached"][lane] == single.extra["n_reached"]
            assert res.extra["iterations"][lane] == single.iterations

    def test_unweighted_graph_rejected(self, graph):
        with pytest.raises(ValueError, match="weighted"):
            sssp_batch(Engine(graph, RANKS), ROOTS2)

    def test_max_iterations_caps_every_lane(self, wgraph):
        res = sssp_batch(Engine(wgraph, RANKS), ROOTS2, max_iterations=2)
        assert all(i <= 2 for i in res.extra["iterations"])
        for lane, src in enumerate(ROOTS2):
            single = sssp(Engine(wgraph, RANKS), root=src, max_iterations=2)
            np.testing.assert_array_equal(res.values[:, lane], single.values)


class TestValidation:
    def test_duplicate_roots_rejected(self, graph, wgraph):
        with pytest.raises(ValueError, match="duplicate"):
            bfs_batch(Engine(graph, RANKS), [3, 17, 3])
        with pytest.raises(ValueError, match="duplicate"):
            sssp_batch(Engine(wgraph, RANKS), [5, 5])

    def test_out_of_range_rejected(self, graph):
        n = graph.n_vertices
        with pytest.raises(ValueError, match="out of range"):
            bfs_batch(Engine(graph, RANKS), [0, n])
        with pytest.raises(ValueError, match="out of range"):
            bfs_batch(Engine(graph, RANKS), [-1])

    def test_empty_rejected(self, graph):
        with pytest.raises(ValueError, match="non-empty"):
            bfs_batch(Engine(graph, RANKS), [])

    def test_validate_roots_returns_int64(self):
        out = validate_roots(10, [3, 1, 7])
        assert out.dtype == np.int64
        assert out.tolist() == [3, 1, 7]


class TestCounterAmortization:
    """The point of the fusion: one α charge per collective, not k."""

    def test_bfs_k8_shares_sparse_collectives(self, graph):
        seq_calls = sum(
            bfs(Engine(graph, RANKS), root=r)
            .counters["allgatherv"]["calls"]
            for r in ROOTS8
        )
        batched = bfs_batch(Engine(graph, RANKS), ROOTS8)
        batch_calls = batched.counters["allgatherv"]["calls"]
        assert 0 < batch_calls
        # Exactly k-fold amortization needs every lane pushing in the
        # same supersteps; even on this small graph the fused stream
        # must at least halve the call count.
        assert batch_calls * 2 <= seq_calls

    def test_sssp_k8_shares_sparse_collectives(self, wgraph):
        seq_calls = sum(
            sssp(Engine(wgraph, RANKS), root=r)
            .counters["allgatherv"]["calls"]
            for r in ROOTS8
        )
        batched = sssp_batch(Engine(wgraph, RANKS), ROOTS8)
        batch_calls = batched.counters["allgatherv"]["calls"]
        assert 0 < batch_calls
        assert batch_calls * 2 <= seq_calls

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_bfs_hub_roots_amortize_allgatherv_k_fold(self, k):
        """``rmat(10, seed=1)`` on 4 ranks from the ``k`` highest-degree
        roots (stable order): the lanes are bit-identical to ``k``
        sequential runs, and the fused stream cuts their AllGatherv
        calls by a factor of at least 0.75k (2.0, 4.0 and 6.33 here)."""
        graph = rmat(10, seed=1)
        roots = np.argsort(-graph.degrees(), kind="stable")[:k].tolist()
        seq = [bfs(Engine(graph, 4), root=r) for r in roots]
        batched = bfs_batch(Engine(graph, 4), roots)
        for j, res in enumerate(seq):
            assert np.array_equal(batched.values[:, j], res.values)
            assert np.array_equal(batched.extra["levels"][:, j], res.extra["levels"])
        seq_calls = sum(res.counters["allgatherv"]["calls"] for res in seq)
        batch_calls = batched.counters["allgatherv"]["calls"]
        assert seq_calls > batch_calls > 0
        assert seq_calls / batch_calls >= 0.75 * k, (seq_calls, batch_calls)
