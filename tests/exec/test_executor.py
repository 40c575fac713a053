"""Host execution of the simulated ranks.

``Engine.map_ranks`` runs the per-rank closures one rank at a time on
the calling thread and returns their results in rank order;
``Engine(executor=)`` is a compatibility guard that accepts only
``None`` and ``"serial"``.  The test classes keep the names of the
rank-executor API the engine had before its host side became
single-threaded, and each test checks what the engine guarantees in
its place.
"""

from __future__ import annotations

import gc
import importlib
import os
import threading

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.core.engine import Engine

#: The variable the removed rank executor was selected by; nothing
#: reads it now.
ENV_VAR = "REPRO_EXECUTOR"


def _rejected(graph, spec) -> str:
    """``Engine(executor=spec)`` raises, naming the spec and why."""
    with pytest.raises(ValueError) as exc:
        Engine(graph, 4, executor=spec)
    msg = str(exc.value)
    assert repr(spec) in msg
    assert "ROADMAP item 3" in msg
    return msg


def _threads_seen(engine) -> set:
    return set(engine.map_ranks(lambda ctx: threading.get_ident()))


class TestResolveExecutor:
    def test_default_is_serial(self, rmat_graph, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert _threads_seen(Engine(rmat_graph, 4)) == {threading.get_ident()}

    def test_explicit_serial(self, rmat_graph):
        e = Engine(rmat_graph, 4, executor="serial")
        assert _threads_seen(e) == {threading.get_ident()}

    def test_threads(self, rmat_graph):
        _rejected(rmat_graph, "threads")

    def test_threads_with_count(self, rmat_graph):
        _rejected(rmat_graph, "threads:3")

    def test_instance_passthrough(self, rmat_graph):
        """No executor object is accepted either."""
        _rejected(rmat_graph, object())

    def test_env_var(self, rmat_graph, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "threads:2")
        assert _threads_seen(Engine(rmat_graph, 4)) == {threading.get_ident()}

    def test_env_var_ignored_when_explicit(self, rmat_graph, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "threads:2")
        Engine(rmat_graph, 4, executor="serial")
        _rejected(rmat_graph, "threads:2")

    def test_unknown_spec_names_offender_and_valid_forms(self, rmat_graph):
        assert "pass None or 'serial'" in _rejected(rmat_graph, "gpus")

    def test_non_integer_worker_count(self, rmat_graph):
        _rejected(rmat_graph, "threads:zero")

    def test_nonpositive_worker_count(self, rmat_graph):
        _rejected(rmat_graph, "threads:0")

    def test_wrong_type_rejected(self, rmat_graph):
        _rejected(rmat_graph, 4)


class TestSerialExecutor:
    def test_preserves_order(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        assert e.map_ranks(lambda ctx: ctx.rank * 2, ranks=[3, 1, 2]) == [6, 2, 4]

    def test_workers(self, rmat_graph):
        """One rank at a time: no closure starts before the previous
        one returned."""
        e = Engine(rmat_graph, 16)
        running, visits = [], []

        def visit(ctx):
            assert not running
            running.append(ctx.rank)
            visits.append(ctx.rank)
            running.pop()

        e.foreach(visit)
        assert visits == list(range(16))

    def test_propagates_errors(self, rmat_graph):
        def boom(ctx):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            Engine(rmat_graph, 4).map_ranks(boom, ranks=[1])


class TestThreadedExecutor:
    @pytest.mark.parametrize("count", [0, -1, -7])
    def test_nonpositive_workers_rejected_naming_spec(self, rmat_graph, count):
        _rejected(rmat_graph, f"threads:{count}")

    def test_none_sizes_to_cpu_count(self, rmat_graph, monkeypatch):
        """However many CPUs the host has, an engine starts no thread."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        before = threading.active_count()
        e = Engine(rmat_graph, 16)
        bfs(e, root=0)
        assert threading.active_count() == before

    def test_preserves_submission_order(self, rmat_graph):
        e = Engine(rmat_graph, 16)
        order = [5, 0, 15, 7, 3]
        assert e.map_ranks(lambda ctx: ctx.rank * 10, ranks=order) == [
            r * 10 for r in order
        ]

    def test_actually_uses_threads(self, rmat_graph):
        """The opposite now: every closure runs on the calling thread."""
        assert _threads_seen(Engine(rmat_graph, 16)) == {threading.get_ident()}

    def test_single_worker_runs_inline(self, rmat_graph):
        """A closure sees the caller's thread-local state."""
        local = threading.local()
        local.tag = "caller"
        e = Engine(rmat_graph, 4)
        assert e.map_ranks(lambda ctx: local.tag) == ["caller"] * 4

    def test_single_item_runs_inline(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        assert e.map_ranks(lambda ctx: threading.get_ident(), ranks=[2]) == [
            threading.get_ident()
        ]

    def test_propagates_errors(self, rmat_graph):
        """The first failing rank stops the sweep; later ranks never run."""
        e = Engine(rmat_graph, 16)
        ran = []

        def boom(ctx):
            ran.append(ctx.rank)
            if ctx.rank == 3:
                raise ValueError("bad rank")

        with pytest.raises(ValueError, match="bad rank"):
            e.foreach(boom)
        assert ran == [0, 1, 2, 3]

    def test_engine_dropped_in_a_cycle_never_joins_from_the_finalizer(
        self, rmat_graph
    ):
        """An engine tied into a reference cycle is collected by the
        cyclic GC from any thread — here one holding the interpreter's
        thread-registry lock, as a starting thread does — without
        waiting on anything."""
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
        engine = Engine(rmat_graph, 4)
        engine.foreach(lambda ctx: None)
        engine.cycle = engine
        del engine
        helper = threading.Thread(target=collect_like_a_starting_thread, daemon=True)
        helper.start()
        assert collected.wait(timeout=20), "collecting the engine hung"

    def test_is_rank_executor(self, rmat_graph):
        """The executor is gone: no engine attribute, no package."""
        assert not hasattr(Engine(rmat_graph, 4), "executor")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.exec")


class TestEngineIntegration:
    def test_engine_default_serial(self, rmat_graph, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        e = Engine(rmat_graph, 4)
        visits = []
        e.foreach(lambda ctx: visits.append(ctx.rank))
        assert visits == [0, 1, 2, 3]

    def test_engine_accepts_spec_string(self, rmat_graph):
        """``"serial"`` builds; a thread count does not."""
        with pytest.raises(ValueError):
            Engine(rmat_graph, 4, executor="threads:4")
        assert Engine(rmat_graph, 4, executor="serial").n_ranks == 4

    def test_engine_env_var(self, rmat_graph, monkeypatch):
        """A run under ``REPRO_EXECUTOR`` is the run without it."""
        monkeypatch.delenv(ENV_VAR, raising=False)
        want = bfs(Engine(rmat_graph, 4), root=0)
        monkeypatch.setenv(ENV_VAR, "threads:2")
        got = bfs(Engine(rmat_graph, 4), root=0)
        assert np.array_equal(got.values, want.values)
        assert got.timings.total == want.timings.total
        assert got.counters == want.counters

    def test_map_ranks_order_and_contexts(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        assert e.map_ranks(lambda ctx: ctx.rank) == [0, 1, 2, 3]
        assert e.map_ranks(lambda ctx: ctx) == e.contexts

    def test_map_ranks_subset(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        assert e.map_ranks(lambda ctx: ctx.rank, ranks=[2, 0]) == [2, 0]

    def test_foreach_side_effects(self, rmat_graph):
        e = Engine(rmat_graph, 4)
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
        e = Engine(rmat_graph, 4)
        bfs(e, root=0)
        e.reset_timers()
        bufs = [np.ones(1) for _ in range(e.n_ranks)]
        e.comm.allreduce(list(range(e.n_ranks)), bufs, op="sum")
        assert "allreduce" in e.counters.summary()
