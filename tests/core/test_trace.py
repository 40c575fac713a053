"""Execution trace tests: per-iteration rows must be exact."""

import json

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.comm import CommCounters, VirtualClocks
from repro.core.trace import TRACE_SCHEMA, TraceRecorder
from repro.graph import rmat


@pytest.fixture
def traced_run():
    engine = Engine(rmat(8, seed=4), 4)
    rec = TraceRecorder(engine)
    result = algorithms.pagerank(engine, iterations=6)
    return engine, rec, result


class TestTraces:
    def test_one_row_per_iteration(self, traced_run):
        engine, rec, result = traced_run
        rows = rec.collect()
        assert len(rows) == 6
        assert [r.iteration for r in rows] == [1, 2, 3, 4, 5, 6]

    def test_deltas_sum_to_totals(self, traced_run):
        engine, rec, result = traced_run
        rows = rec.collect()
        assert sum(r.total_s for r in rows) == pytest.approx(
            result.timings.total, rel=1e-9
        )
        assert sum(r.comm_s for r in rows) == pytest.approx(
            result.timings.comm, rel=1e-9
        )

    def test_counter_columns_sum_exactly(self, traced_run):
        """Rows reproduce the run's CommCounters totals bit-for-bit."""
        engine, rec, result = traced_run
        rows = rec.collect()
        c = engine.counters
        assert sum(r.bytes for r in rows) == c.total_bytes
        assert sum(r.serial_messages for r in rows) == c.total_serial_messages
        assert sum(r.transfers for r in rows) == c.total_transfers

    def test_per_kind_sums_exactly(self, traced_run):
        engine, rec, result = traced_run
        rows = rec.collect()
        agg: dict[str, dict[str, int]] = {}
        for r in rows:
            for kind, stats in r.by_kind.items():
                a = agg.setdefault(kind, dict.fromkeys(stats, 0))
                for key, v in stats.items():
                    a[key] += v
        assert agg == engine.counters.summary()

    def test_rows_own_their_dicts(self, traced_run):
        """No aliasing: each row gets its own per-kind dicts."""
        engine, rec, result = traced_run
        rows = rec.collect()
        assert len({id(r.calls_by_kind) for r in rows}) == len(rows)
        assert len({id(r.by_kind) for r in rows}) == len(rows)
        # every iteration reports its own calls, not just the last row
        assert all(r.calls_by_kind for r in rows)

    def test_csv_export(self, traced_run):
        engine, rec, result = traced_run
        text = TraceRecorder.to_csv(rec.collect())
        lines = text.strip().splitlines()
        assert lines[0].startswith("iteration,")
        assert "transfers" in lines[0]
        assert len(lines) == 7

    def test_json_export(self, traced_run):
        engine, rec, result = traced_run
        rows = rec.collect()
        doc = json.loads(TraceRecorder.to_json(rows, meta={"algo": "PR"}))
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["meta"]["algo"] == "PR"
        assert len(doc["iterations"]) == len(rows)
        assert doc["totals"]["bytes"] == engine.counters.total_bytes
        by_kind = doc["totals"]["by_kind"]
        assert by_kind == engine.counters.summary()

    def test_tail_row_catches_post_mark_comm(self):
        """Comm after the last mark lands in a trailing row, so sums
        stay exact."""
        engine = Engine(rmat(7, seed=1), 4)
        engine.reset_timers()
        ranks = list(range(4))
        bufs = [np.zeros(8) for _ in ranks]
        engine.comm.allreduce(ranks, bufs)
        engine.clocks.mark_iteration()
        engine.comm.allreduce(ranks, bufs)  # after the final mark
        rows = TraceRecorder(engine).collect()
        assert len(rows) == 2
        assert rows[1].iteration == 2
        assert sum(r.bytes for r in rows) == engine.counters.total_bytes

    def test_counterless_clocks_rejected(self):
        engine = Engine(rmat(7, seed=1), 4)
        engine.clocks = VirtualClocks(4)  # no counters attached
        engine.clocks.mark_iteration()
        with pytest.raises(ValueError, match="counter snapshots"):
            TraceRecorder(engine).collect()

    def test_tail_decay_visible_for_cc(self):
        """CC's iteration tail: later iterations move fewer bytes."""
        from repro.graph import web_graph

        g = web_graph(2000, 12_000, seed=3)
        engine = Engine(g, 4)
        rec = TraceRecorder(engine)
        algorithms.connected_components(engine)
        rows = rec.collect()
        assert len(rows) > 5
        first_half = sum(r.comm_s for r in rows[: len(rows) // 2])
        second_half = sum(r.comm_s for r in rows[len(rows) // 2 :])
        assert second_half < first_half
        # with exact rows the byte decay is visible too, not estimated
        first_bytes = sum(r.bytes for r in rows[: len(rows) // 2])
        second_bytes = sum(r.bytes for r in rows[len(rows) // 2 :])
        assert second_bytes < first_bytes


class TestExactnessAcrossAlgorithms:
    @pytest.mark.parametrize(
        "algo", ["bfs", "connected_components", "label_propagation"]
    )
    def test_totals_reproduced(self, algo):
        engine = Engine(rmat(8, seed=2), 4)
        fn = getattr(algorithms, algo)
        fn(engine, root=0) if algo == "bfs" else fn(engine)
        rows = TraceRecorder(engine).collect()
        c = engine.counters
        assert sum(r.bytes for r in rows) == c.total_bytes
        assert sum(r.serial_messages for r in rows) == c.total_serial_messages
        assert sum(r.transfers for r in rows) == c.total_transfers
        calls = {}
        for r in rows:
            for k, v in r.calls_by_kind.items():
                calls[k] = calls.get(k, 0) + v
        assert calls == {k: s.calls for k, s in c.by_kind.items()}
