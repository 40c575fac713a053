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

from repro.core.engine import Engine
from repro.patterns import (
    dense_exchange,
    dense_exchange_lanes,
    sparse_push,
    sparse_push_lanes,
)

RANKS = 4


def _setup(graph, k: int, seed: int = 0) -> Engine:
    """Engine with a k-lane state ``x`` and 1-D copies ``y0..y{k-1}``.

    Each rank's local window gets its own reproducible values, so group
    reductions genuinely combine different member contributions.
    """
    engine = Engine(graph, RANKS)
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


def _lane_queues(engine: Engine, k: int, seed: int):
    """Per-lane 1-D queues plus their lane-major fused counterpart."""
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

        def observed_run(engine, state, direction, op):
            during.append([ctx.device.ledger.get("state.x#lanes") for ctx in engine])
            run(engine, state, direction, op)

        monkeypatch.setattr(dense, "_run", observed_run)
        dense_exchange_lanes(engine, "x", "pull", "sum", live)
        assert during == [[ctx.n_total * live.size * 8 for ctx in engine]]
        assert all("state.x#lanes" not in ctx.device.ledger for ctx in engine)

    def test_tmp_state_is_freed(self, rmat_graph):
        """The pack buffer is charged to every rank's device for the
        exchange (the peak shows it) and released afterwards."""
        engine = _setup(rmat_graph, 3, seed=10)
        held = [ctx.device.allocated_bytes for ctx in engine]
        dense_exchange_lanes(engine, "x", "pull", "min", np.array([0, 2]))
        for ctx, before in zip(engine, held):
            with pytest.raises(KeyError):
                ctx.get("x#lanes")
            assert "state.x#lanes" not in ctx.device.ledger
            assert ctx.device.allocated_bytes == before
            assert ctx.device.peak_bytes >= before + ctx.n_total * 2 * 8
