"""Unit tests for the pluggable rank-execution subsystem."""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.exec import (
    ENV_VAR,
    RankExecutor,
    SerialExecutor,
    ThreadedExecutor,
    resolve_executor,
)


class TestResolveExecutor:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_explicit_serial(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_threads(self):
        ex = resolve_executor("threads")
        assert isinstance(ex, ThreadedExecutor)

    def test_threads_with_count(self):
        ex = resolve_executor("threads:3")
        assert isinstance(ex, ThreadedExecutor)
        assert ex.workers == 3

    def test_instance_passthrough(self):
        ex = ThreadedExecutor(max_workers=2)
        assert resolve_executor(ex) is ex

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "threads:2")
        ex = resolve_executor(None)
        assert isinstance(ex, ThreadedExecutor)
        assert ex.workers == 2

    def test_env_var_ignored_when_explicit(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "threads:2")
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_unknown_spec_names_offender_and_valid_forms(self):
        with pytest.raises(ValueError) as exc:
            resolve_executor("gpus")
        assert "'gpus'" in str(exc.value)
        assert "valid forms" in str(exc.value)
        assert "threads:N" in str(exc.value)

    def test_non_integer_worker_count(self):
        with pytest.raises(ValueError) as exc:
            resolve_executor("threads:zero")
        assert "'zero'" in str(exc.value)
        assert "not an integer" in str(exc.value)
        assert "valid forms" in str(exc.value)

    def test_nonpositive_worker_count(self):
        with pytest.raises(ValueError) as exc:
            resolve_executor("threads:0")
        assert ">= 1" in str(exc.value)
        assert "got 0" in str(exc.value)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="RankExecutor, a string, or None"):
            resolve_executor(4)


class TestSerialExecutor:
    def test_preserves_order(self):
        ex = SerialExecutor()
        assert ex.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_workers(self):
        assert SerialExecutor().workers == 1

    def test_propagates_errors(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            SerialExecutor().map(boom, [1])


class TestThreadedExecutor:
    @pytest.mark.parametrize("count", [0, -1, -7])
    def test_nonpositive_workers_rejected_naming_spec(self, count):
        """``max_workers=0`` must fail loudly at construction, in the
        same spec-naming style as ``resolve_executor``."""
        with pytest.raises(ValueError) as exc:
            ThreadedExecutor(max_workers=count)
        msg = str(exc.value)
        assert "invalid executor spec" in msg
        assert f"max_workers={count!r}" in msg
        assert "valid forms" in msg

    def test_none_sizes_to_cpu_count(self):
        import os

        ex = ThreadedExecutor(max_workers=None)
        assert ex.workers == (os.cpu_count() or 1)

    def test_preserves_submission_order(self):
        ex = ThreadedExecutor(max_workers=4)
        try:
            out = ex.map(lambda x: x * 10, list(range(32)))
            assert out == [x * 10 for x in range(32)]
        finally:
            ex.close()

    def test_actually_uses_threads(self):
        ex = ThreadedExecutor(max_workers=4)
        names = set()
        barrier = threading.Barrier(2, timeout=10)

        def record(i):
            if i < 2:
                barrier.wait()  # force at least two distinct threads
            names.add(threading.current_thread().name)
            return i

        try:
            ex.map(record, list(range(4)))
            assert any("repro-rank" in n for n in names)
            assert len(names) >= 2
        finally:
            ex.close()

    def test_single_worker_runs_inline(self):
        ex = ThreadedExecutor(max_workers=1)
        main = threading.current_thread().name
        names = ex.map(lambda i: threading.current_thread().name, [1, 2, 3])
        assert set(names) == {main}

    def test_single_item_runs_inline(self):
        ex = ThreadedExecutor(max_workers=4)
        main = threading.current_thread().name
        assert ex.map(lambda i: threading.current_thread().name, [7]) == [main]

    def test_propagates_errors(self):
        ex = ThreadedExecutor(max_workers=2)

        def boom(x):
            if x == 3:
                raise ValueError("bad item")
            return x

        try:
            with pytest.raises(ValueError, match="bad item"):
                ex.map(boom, list(range(8)))
        finally:
            ex.close()

    def test_close_idempotent(self):
        ex = ThreadedExecutor(max_workers=2)
        ex.map(lambda x: x, [1, 2])
        ex.close()
        ex.close()

    def test_engine_dropped_in_a_cycle_never_joins_from_the_finalizer(
        self, rmat_graph, monkeypatch
    ):
        """Regression: ``__del__`` used to ``shutdown(wait=True)``.  The
        cyclic GC runs finalizers on whichever thread allocates next —
        here, deliberately, one holding the interpreter's
        thread-registry lock, as a starting thread does — and joining
        workers that need that lock to exit never returned."""
        from concurrent.futures import ThreadPoolExecutor

        waits = []
        real_shutdown = ThreadPoolExecutor.shutdown

        def spy(pool, wait=True, **kwargs):
            waits.append(wait)
            return real_shutdown(pool, wait=wait, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", spy)

        collected = threading.Event()

        def collect_like_a_starting_thread():
            lock = getattr(threading, "_active_limbo_lock", None)
            if lock is None:  # private; gone in some future CPython
                gc.collect()
            else:
                with lock:
                    gc.collect()
            collected.set()

        gc.collect()  # flush whatever earlier tests left behind
        engine = Engine(rmat_graph, 4, executor="threads:4")
        engine.foreach(lambda ctx: None)  # the pool is live
        workers = list(engine.executor._pool._threads)
        engine.cycle = engine
        del engine
        waits.clear()
        helper = threading.Thread(target=collect_like_a_starting_thread, daemon=True)
        helper.start()
        assert collected.wait(timeout=20), "finalizer joined the pool and hung"
        assert waits == [False]
        for t in workers:  # woken, not joined: they exit on their own
            t.join(timeout=20)
            assert not t.is_alive()

    def test_close_joins(self):
        ex = ThreadedExecutor(max_workers=2)
        ex.map(lambda x: x, [1, 2])
        workers = list(ex._pool._threads)
        ex.close()
        assert not any(t.is_alive() for t in workers)

    def test_is_rank_executor(self):
        assert isinstance(ThreadedExecutor(max_workers=2), RankExecutor)
        assert isinstance(SerialExecutor(), RankExecutor)


class TestEngineIntegration:
    def test_engine_default_serial(self, rmat_graph, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        e = Engine(rmat_graph, 4)
        assert isinstance(e.executor, SerialExecutor)

    def test_engine_accepts_spec_string(self, rmat_graph):
        e = Engine(rmat_graph, 4, executor="threads:2")
        assert isinstance(e.executor, ThreadedExecutor)
        assert e.executor.workers == 2

    def test_engine_env_var(self, rmat_graph, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "threads:2")
        e = Engine(rmat_graph, 4)
        assert isinstance(e.executor, ThreadedExecutor)

    def test_map_ranks_order_and_contexts(self, rmat_graph):
        e = Engine(rmat_graph, 4, executor=ThreadedExecutor(max_workers=4))
        out = e.map_ranks(lambda ctx: ctx.rank)
        assert out == [0, 1, 2, 3]

    def test_map_ranks_subset(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        assert e.map_ranks(lambda ctx: ctx.rank, ranks=[2, 0]) == [2, 0]

    def test_foreach_side_effects(self, rmat_graph):
        e = Engine(rmat_graph, 4, executor=ThreadedExecutor(max_workers=4))
        hits = np.zeros(4, dtype=np.int64)

        def mark(ctx):
            hits[ctx.rank] += 1

        e.foreach(mark)
        assert np.array_equal(hits, np.ones(4, dtype=np.int64))

    def test_stage_sharing_precomputed(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        # Eagerly computed at construction (no lazy hasattr memo).
        assert e._stage_sharing == {
            "row": e.stage_nic_sharing("row"),
            "col": e.stage_nic_sharing("col"),
        }
        with pytest.raises(ValueError):
            e.stage_nic_sharing("diagonal")


class TestResetTimers:
    def test_reset_in_place(self, rmat_graph):
        """reset_timers must reset the existing objects, not rebind them,
        so references held by the Communicator (and traces) stay live."""
        e = Engine(rmat_graph, 4)
        counters = e.counters
        clocks = e.clocks
        comm_counters = e.comm.counters

        from repro.algorithms.bfs import bfs

        bfs(e, root=0)
        assert counters.summary()  # something was recorded
        e.reset_timers()

        assert e.counters is counters
        assert e.clocks is clocks
        assert e.comm.counters is comm_counters
        assert counters.summary() == {}
        assert clocks.clock.sum() == 0.0
        assert clocks.compute.sum() == 0.0
        assert clocks.comm.sum() == 0.0
        assert clocks.iteration_marks == []

    def test_counters_flow_after_reset(self, rmat_graph):
        """Regression: after reset_timers, new communication must land in
        the counters the Engine reports (previously the Engine rebound
        self.counters while comm kept the old object)."""
        from repro.algorithms.bfs import bfs

        e = Engine(rmat_graph, 4)
        bfs(e, root=0)
        e.reset_timers()
        bufs = [np.ones(1) for _ in range(e.n_ranks)]
        e.comm.allreduce(list(range(e.n_ranks)), bufs, op="sum")
        assert "allreduce" in e.counters.summary()
