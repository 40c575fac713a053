"""Batched traversals resume from checkpoints bit-identically per lane."""

import numpy as np
import pytest

from repro import Engine
from repro.algorithms.batch import bfs_batch, sssp_batch
from repro.core import NoCheckpointError
from repro.faults import CheckpointManager, FaultPlan, FaultSpec, RankFailure
from repro.graph import rmat

GRAPH = rmat(8, edgefactor=8, seed=5)
WGRAPH = GRAPH.with_random_weights(seed=9)
ROOTS = [0, 3, 17, 42]

CASES = {
    "bfs_batch": (
        GRAPH,
        lambda e, r=False: bfs_batch(e, ROOTS, resume=r),
    ),
    "sssp_batch": (
        WGRAPH,
        lambda e, r=False: sssp_batch(e, ROOTS, resume=r),
    ),
}


def _engine(graph, plan=None):
    engine = Engine(graph, 4)
    engine.attach_checkpoints(CheckpointManager(interval=1))
    if plan is not None:
        engine.attach_faults(plan, max_retries=2)
    return engine


class TestCrashResumeBitIdentity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_crash_then_resume_matches_fault_free(self, name):
        graph, run = CASES[name]
        ref_engine = _engine(graph)
        ref = run(ref_engine)

        engine = _engine(
            graph, plan=FaultPlan([FaultSpec("crash", 2, rank=1)])
        )
        with pytest.raises(RankFailure):
            run(engine)
        result = run(engine, True)

        # Per-lane values, counters, and every per-rank clock lane must
        # match the fault-free run exactly.
        assert np.array_equal(ref.values, result.values)
        assert ref_engine.counters.summary() == engine.counters.summary()
        ref_lanes = ref_engine.clocks.per_rank_lanes()
        lanes = engine.clocks.per_rank_lanes()
        for lane in ref_lanes:
            assert np.array_equal(ref_lanes[lane], lanes[lane]), lane
        assert np.array_equal(ref_engine.clocks.clock, engine.clocks.clock)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_per_lane_payloads_match(self, name):
        """Each lane of the batch individually survives the resume."""
        graph, run = CASES[name]
        ref = run(_engine(graph))
        engine = _engine(
            graph, plan=FaultPlan([FaultSpec("crash", 2, rank=1)])
        )
        with pytest.raises(RankFailure):
            run(engine)
        result = run(engine, True)
        for lane in range(len(ROOTS)):
            assert np.array_equal(
                ref.values[:, lane], result.values[:, lane]
            ), f"lane {lane}"


class TestResumeGuards:
    def test_bfs_resume_rejects_root_mismatch(self):
        engine = _engine(
            GRAPH, plan=FaultPlan([FaultSpec("crash", 2, rank=1)])
        )
        with pytest.raises(RankFailure):
            bfs_batch(engine, ROOTS)
        with pytest.raises(ValueError, match="roots"):
            bfs_batch(engine, [0, 3, 17, 99], resume=True)

    def test_sssp_resume_rejects_source_mismatch(self):
        engine = _engine(
            WGRAPH, plan=FaultPlan([FaultSpec("crash", 2, rank=1)])
        )
        with pytest.raises(RankFailure):
            sssp_batch(engine, ROOTS)
        with pytest.raises(ValueError, match="sources"):
            sssp_batch(engine, [0, 3], resume=True)

    def test_resume_without_checkpoint_raises(self):
        """resume=True with nothing to resume from (no manager, or none
        saved yet) is an error, not a silent cold start."""
        for graph, run in CASES.values():
            with pytest.raises(NoCheckpointError, match="no checkpoint"):
                run(Engine(graph, 4), True)
            with pytest.raises(NoCheckpointError):
                run(_engine(graph), True)
