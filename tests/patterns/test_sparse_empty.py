"""Sparse exchanges with all-empty queues (the dtype-loss path).

A group whose members all send zero-length buffers must still produce
structured ``PAIR_DTYPE`` receive buffers — a plain float64
``np.empty(0)`` breaks every ``rbuf["gid"]`` consumer — and the
exchange must leave state untouched while reporting zero updates.
"""

import numpy as np
import pytest

from repro import Engine
from repro.comm import Grid2D
from repro.core.trace import TraceRecorder
from repro.graph import rmat
from repro.patterns.sparse import (
    PAIR_DTYPE,
    propagate_active_pull,
    sparse_pull,
    sparse_push,
)

GRIDS = [
    pytest.param(Grid2D(2, 2), id="square-2x2"),
    pytest.param(Grid2D(R=3, C=2), id="nonsquare-3x2"),
    pytest.param(Grid2D(R=2, C=4), id="nonsquare-2x4"),
]


def _engine(grid: Grid2D) -> Engine:
    return Engine(rmat(7, seed=5), grid=grid)


_EMPTY_QUEUE = np.empty(0, dtype=np.int64)  # a stacked queue: no rank has entries


class TestAllEmptyQueues:
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("exchange", [sparse_push, sparse_pull])
    def test_state_untouched_and_no_updates(self, grid, exchange):
        engine = _engine(grid)
        engine.alloc("x", np.float64, fill=7.0)
        before = [ctx.get("x").copy() for ctx in engine]
        res = exchange(engine, "x", _EMPTY_QUEUE)
        assert res.n_updated == 0
        for ctx, prev in zip(engine, before):
            np.testing.assert_array_equal(ctx.get("x"), prev)
        assert res.rows.size == 0

    @pytest.mark.parametrize("grid", GRIDS)
    def test_propagate_active_pull_all_empty(self, grid):
        engine = _engine(grid)
        active = propagate_active_pull(engine, _EMPTY_QUEUE)
        assert active.dtype == np.int64 and active.size == 0

    @pytest.mark.parametrize("grid", GRIDS)
    def test_trace_stays_exact_through_empty_exchanges(self, grid):
        """Per-iteration trace bytes/messages sum exactly to the
        CommCounters run totals even when iterations move nothing."""
        engine = _engine(grid)
        engine.reset_timers()
        engine.alloc("x", np.float64, fill=1.0)
        for _ in range(3):
            sparse_push(engine, "x", _EMPTY_QUEUE)
            engine.clocks.mark_iteration()
        rows = TraceRecorder(engine).collect()
        c = engine.counters
        assert sum(r.bytes for r in rows) == c.total_bytes
        assert sum(r.serial_messages for r in rows) == c.total_serial_messages
        assert sum(r.transfers for r in rows) == c.total_transfers


class TestDtypePreservation:
    def test_allgatherv_empty_preserves_structured_dtype(self):
        engine = _engine(Grid2D(2, 2))
        ranks = [0, 1]
        send, counts = np.empty(0, dtype=PAIR_DTYPE), np.zeros(2, dtype=np.int64)
        [rbuf] = engine.comm.allgatherv_stage([ranks], send, counts)
        assert rbuf.dtype == PAIR_DTYPE
        assert rbuf["gid"].size == 0  # field access must not raise

    def test_alltoallv_empty_preserves_structured_dtype(self):
        engine = _engine(Grid2D(2, 2))
        k = 2
        sm = [[np.empty(0, dtype=PAIR_DTYPE) for _ in range(k)] for _ in range(k)]
        received = engine.comm.alltoallv([0, 1], sm)
        for rbuf in received:
            assert rbuf.dtype == PAIR_DTYPE
            assert rbuf["gid"].size == 0

    def test_alltoallv_mixed_empty_nonempty(self):
        engine = _engine(Grid2D(2, 2))
        pairs = np.zeros(3, dtype=PAIR_DTYPE)
        sm = [
            [np.empty(0, dtype=PAIR_DTYPE), pairs],
            [np.empty(0, dtype=PAIR_DTYPE), np.empty(0, dtype=PAIR_DTYPE)],
        ]
        received = engine.comm.alltoallv([0, 1], sm)
        assert received[0].dtype == PAIR_DTYPE
        assert received[0].size == 0
        assert received[1].dtype == PAIR_DTYPE
        assert received[1].size == 3
