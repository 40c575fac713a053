"""Fused k-lane exchange patterns vs k independent 1-D exchanges.

``sparse_push_lanes`` and ``dense_exchange_lanes`` promise per-lane
bit-identity to their 1-D counterparts: lane ``l`` of the fused
``(N_T, k)`` state must end exactly where a separate 1-D exchange of
that lane's column would leave it, while the fused path issues one
collective per group where k separate exchanges issue k.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.batch import bfs_batch, sssp_batch
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import erdos_renyi_gnm, rmat
from repro.patterns import (
    PAIR_DTYPE,
    dense_exchange,
    dense_exchange_lanes,
    sparse_push,
    sparse_push_lanes,
)

from ..conftest import ledger_entries, owns_col_gid

RANKS = 4


def _setup(graph, k: int, seed: int = 0, **layout) -> Engine:
    """Engine (``layout``: its ``n_ranks`` / ``grid``, default
    :data:`RANKS`) with a k-lane state ``x`` and 1-D copies
    ``y0..y{k-1}``.

    Each rank's local window gets its own reproducible values, so group
    reductions genuinely combine different member contributions.
    """
    engine = Engine(graph, **(layout or {"n_ranks": RANKS}))
    engine.alloc("x", np.float64, width=k)
    for lane in range(k):
        engine.alloc(f"y{lane}", np.float64)

    def fill(ctx):
        rng = np.random.default_rng(1000 * seed + ctx.rank)
        x = ctx.get("x")
        x[...] = rng.integers(0, 100, size=x.shape).astype(np.float64)
        for lane in range(k):
            ctx.get(f"y{lane}")[...] = x[:, lane]

    engine.foreach(fill)
    return engine


def _lane_queues(engine: Engine, k: int, seed: int, corner: bool = False):
    """Per-lane 1-D queues plus their lane-major fused counterpart;
    ``corner`` puts the largest key's cell, GID ``n - 1`` in lane
    ``k - 1``, on every rank whose column window holds it."""
    rng = np.random.default_rng(seed)
    per_lane = []  # per_lane[lane][rank] -> sorted col LIDs
    for lane in range(k):
        qs = []
        for ctx in engine:
            cs = ctx.col_slice
            m = int(rng.integers(1, max(2, (cs.stop - cs.start) // 4)))
            qs.append(
                np.sort(
                    rng.choice(
                        np.arange(cs.start, cs.stop), m, replace=False
                    )
                )
            )
        per_lane.append(qs)
    last = engine.partition.n_vertices - 1
    for ctx in engine:
        lm, q = ctx.localmap, per_lane[k - 1]
        if corner and owns_col_gid(lm, last):
            q[ctx.rank] = np.union1d(q[ctx.rank], lm.col_lid(last))
    fused = []
    for rank in range(engine.grid.n_ranks):
        lids = np.concatenate([per_lane[lane][rank] for lane in range(k)])
        lanes = np.concatenate(
            [
                np.full(per_lane[lane][rank].size, lane, dtype=np.int64)
                for lane in range(k)
            ]
        )
        fused.append((lids, lanes))
    return per_lane, fused


class TestSparsePushLanes:
    @pytest.mark.parametrize("op", ["min", "max", "sum"])
    def test_matches_k_independent_pushes(self, rmat_graph, op):
        k = 3
        engine = _setup(rmat_graph, k, seed=2)
        per_lane, fused = _lane_queues(engine, k, seed=7)

        singles = [
            sparse_push(engine, f"y{lane}", engine.fleet.stack(per_lane[lane])[0], op=op)
            for lane in range(k)
        ]
        result = sparse_push_lanes(engine, "x", fused, op=op)

        for ctx in engine:
            x = ctx.get("x")
            for lane in range(k):
                np.testing.assert_array_equal(
                    x[:, lane], ctx.get(f"y{lane}"), strict=True
                )
        for lane in range(k):
            assert result.n_updated[lane] == singles[lane].n_updated
            single_rows = engine.fleet.split(singles[lane].rows)
            for rank in range(engine.grid.n_ranks):
                lids, lanes = result.active_row[rank]
                np.testing.assert_array_equal(lids[lanes == lane], single_rows[rank])

    def test_active_row_is_lane_major_sorted(self, rmat_graph):
        k = 2
        engine = _setup(rmat_graph, k, seed=3)
        _, fused = _lane_queues(engine, k, seed=11)
        result = sparse_push_lanes(engine, "x", fused, op="min")
        for lids, lanes in result.active_row:
            comp = lanes * engine.partition.n_vertices + lids
            assert np.array_equal(comp, np.sort(comp))

    def test_one_collective_per_group_regardless_of_k(self, rmat_graph):
        """The α amortization itself: the fused exchange's allgatherv
        call count equals a single 1-D exchange's, independent of k."""
        k = 4
        engine = _setup(rmat_graph, k, seed=4)
        per_lane, fused = _lane_queues(engine, k, seed=13)
        sparse_push(engine, "y0", engine.fleet.stack(per_lane[0])[0], op="min")
        single_calls = engine.counters.summary()["allgatherv"]["calls"]
        sparse_push_lanes(engine, "x", fused, op="min")
        fused_calls = (
            engine.counters.summary()["allgatherv"]["calls"] - single_calls
        )
        assert fused_calls == single_calls

    def test_overlap_engine_matches_blocking(self, rmat_graph):
        k = 2
        blocking = _setup(rmat_graph, k, seed=5)
        overlapped = Engine(rmat_graph, RANKS, overlap=True)
        for dst, src in zip(
            overlapped.alloc("x", np.float64, width=k), blocking.states("x")
        ):
            dst[...] = src
        _, fused = _lane_queues(blocking, k, seed=17)
        rb = sparse_push_lanes(blocking, "x", fused, op="min")
        ro = sparse_push_lanes(overlapped, "x", fused, op="min")
        np.testing.assert_array_equal(rb.n_updated, ro.n_updated)
        for rank in range(RANKS):
            np.testing.assert_array_equal(
                blocking.ctx(rank).get("x"), overlapped.ctx(rank).get("x")
            )


def _record_payloads(engine: Engine) -> list:
    """Guard every collective of ``engine``; returns the list it fills
    with ``(kind, payload array)`` pairs."""
    seen = []

    def guard(clocks, kind, ranks, payload):
        parts = payload if isinstance(payload, (list, tuple)) else [payload]
        seen.extend((kind, np.asarray(part)) for part in parts)

    engine.comm.guard = guard
    return seen


class TestLaneWireFormat:
    """A lane exchange ships the scalar exchange's 16-byte ``{key, val}``
    pair, its key the lane-major ``lane * n + gid``."""

    @pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
    @pytest.mark.parametrize("run", [bfs_batch, sssp_batch])
    def test_batch_exchanges_ship_pairs(self, run, overlap):
        graph = rmat(9, seed=5).with_random_weights(seed=5)
        engine = Engine(graph, grid=Grid2D(R=2, C=4), overlap=overlap)
        seen = _record_payloads(engine)
        run(engine, [3, 17, 200])
        gathered = [part for kind, part in seen if kind == "allgatherv"]
        assert gathered and sum(part.size for part in gathered) > 0
        for part in gathered:
            assert part.dtype == PAIR_DTYPE and part.dtype.itemsize == 16
        # nothing else a batch sends is wider than a pair either
        assert max(part.dtype.itemsize for _, part in seen) <= 16

    @pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
    @pytest.mark.parametrize("op", ["min", "sum"])
    def test_one_lane_is_the_scalar_exchange(self, rmat_graph, op, overlap):
        lane = _setup(rmat_graph, 1, seed=8, n_ranks=RANKS, overlap=overlap)
        scalar = _setup(rmat_graph, 1, seed=8, n_ranks=RANKS, overlap=overlap)
        per_lane, fused = _lane_queues(lane, 1, seed=9)
        lanes = _record_payloads(lane)
        scalars = _record_payloads(scalar)

        got = sparse_push_lanes(lane, "x", fused, op=op)
        want = sparse_push(scalar, "y0", scalar.fleet.stack(per_lane[0])[0], op=op)

        np.testing.assert_array_equal(
            lane.fleet.stacked("x")[:, 0], scalar.fleet.stacked("y0"), strict=True
        )
        np.testing.assert_array_equal(lane.clocks.lanes, scalar.clocks.lanes, strict=True)
        assert lane.counters.summary() == scalar.counters.summary()
        assert got.n_updated.tolist() == [want.n_updated]
        for (lids, _), rows in zip(got.active_row, scalar.fleet.split(want.rows)):
            np.testing.assert_array_equal(lids, rows)
        # the same bytes on the wire, record for record
        assert [(kind, part.tobytes()) for kind, part in lanes] == [
            (kind, part.tobytes()) for kind, part in scalars
        ]

    @pytest.mark.parametrize("grid", [(3, 5), (16, 16)], ids=["3x5", "16x16"])
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_keys_round_trip(self, k, grid):
        """``n`` = 1000 is no power of two, and k = 3 or 5 would catch a
        decode that shifts and masks as the power-of-two lane counts may."""
        graph = erdos_renyi_gnm(1000, 4000, seed=3)
        engine = _setup(graph, k, seed=6, grid=Grid2D(R=grid[0], C=grid[1]))
        n = engine.partition.n_vertices
        per_lane, fused = _lane_queues(engine, k, seed=21, corner=True)
        seen = _record_payloads(engine)

        singles = [
            sparse_push(engine, f"y{lane}", engine.fleet.stack(per_lane[lane])[0])
            for lane in range(k)
        ]
        del seen[:]
        result = sparse_push_lanes(engine, "x", fused)

        keys = np.concatenate([part["gid"] for _, part in seen])
        assert keys.min() >= 0 and keys.max() == k * n - 1
        assert set(np.unique(keys // n)) == set(range(k))
        for lane in range(k):
            np.testing.assert_array_equal(
                engine.fleet.stacked("x")[:, lane],
                engine.fleet.stacked(f"y{lane}"),
                strict=True,
            )
            assert result.n_updated[lane] == singles[lane].n_updated
            single_rows = engine.fleet.split(singles[lane].rows)
            for rank in range(engine.n_ranks):
                lids, lanes = result.active_row[rank]
                np.testing.assert_array_equal(lids[lanes == lane], single_rows[rank])

    def test_a_key_that_would_overflow_is_refused(self, rmat_graph, monkeypatch):
        engine = _setup(rmat_graph, 2, seed=1)
        _, fused = _lane_queues(engine, 2, seed=2)
        before = engine.fleet.stacked("x").copy()
        monkeypatch.setattr(engine.partition, "n_vertices", 2**62)
        with pytest.raises(ValueError, match="overflow"):
            sparse_push_lanes(engine, "x", fused)
        np.testing.assert_array_equal(engine.fleet.stacked("x"), before)
        assert engine.counters.summary() == {}


class TestDenseExchangeLanes:
    @pytest.mark.parametrize("direction,op", [("pull", "min"), ("push", "max")])
    def test_full_lane_set_matches_per_lane(self, rmat_graph, direction, op):
        k = 3
        engine = _setup(rmat_graph, k, seed=6)
        dense_exchange_lanes(engine, "x", direction, op, np.arange(k))
        for lane in range(k):
            dense_exchange(engine, f"y{lane}", direction, op)
        for ctx in engine:
            x = ctx.get("x")
            for lane in range(k):
                np.testing.assert_array_equal(
                    x[:, lane], ctx.get(f"y{lane}"), strict=True
                )

    def test_subset_packs_only_live_lanes(self, rmat_graph):
        k = 4
        live = np.array([0, 2, 3])
        engine = _setup(rmat_graph, k, seed=8)
        before = [ctx.get("x")[:, 1].copy() for ctx in engine]
        dense_exchange_lanes(engine, "x", "pull", "min", live)
        for lane in live:
            dense_exchange(engine, f"y{lane}", "pull", "min")
        for i, ctx in enumerate(engine):
            x = ctx.get("x")
            for lane in live:
                np.testing.assert_array_equal(
                    x[:, lane], ctx.get(f"y{lane}"), strict=True
                )
            # the retired lane's column must not move
            np.testing.assert_array_equal(x[:, 1], before[i], strict=True)

    def test_lane_scratch_is_charged_during_the_exchange(self, rmat_graph, monkeypatch):
        """Every rank's device holds ``state.x#lanes`` — its share of the
        packed live lanes — while the exchange runs, and not after."""
        from repro.patterns import dense

        live = np.array([1, 3])
        engine = _setup(rmat_graph, 4, seed=9)
        during = []
        run = dense._run

        def observed_run(engine, state, direction, op, **kwargs):
            during.append(
                [ledger_entries(engine.devices, ctx.rank).get("state.x#lanes") for ctx in engine]
            )
            return run(engine, state, direction, op, **kwargs)

        monkeypatch.setattr(dense, "_run", observed_run)
        dense_exchange_lanes(engine, "x", "pull", "sum", live)
        assert during == [[ctx.n_total * live.size * 8 for ctx in engine]]
        assert all(
            "state.x#lanes" not in ledger_entries(engine.devices, ctx.rank) for ctx in engine
        )

    def test_tmp_state_is_freed(self, rmat_graph):
        """The pack buffer is charged to every rank's device for the
        exchange (the peak shows it) and released afterwards."""
        engine = _setup(rmat_graph, 3, seed=10)
        held = engine.devices.allocated.copy()
        dense_exchange_lanes(engine, "x", "pull", "min", np.array([0, 2]))
        for ctx, before in zip(engine, held):
            with pytest.raises(KeyError):
                ctx.get("x#lanes")
            assert "state.x#lanes" not in ledger_entries(engine.devices, ctx.rank)
            assert engine.devices.allocated[ctx.rank] == before
            assert engine.devices.peak[ctx.rank] >= before + ctx.n_total * 2 * 8
