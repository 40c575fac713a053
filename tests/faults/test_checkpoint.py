"""CheckpointManager: snapshot, prune, restore."""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.core import NoCheckpointError
from repro.faults import CheckpointManager
from repro.graph import rmat


def small_engine(n_ranks=4):
    return Engine(rmat(7, seed=3), n_ranks)


class TestManagerConfig:
    def test_interval_validated(self):
        with pytest.raises(ValueError, match="interval"):
            CheckpointManager(interval=0)

    def test_keep_validated(self):
        with pytest.raises(ValueError, match="keep"):
            CheckpointManager(keep=0)

    def test_maybe_save_honors_interval(self):
        engine = small_engine()
        mgr = CheckpointManager(interval=3, checkpoint_bw=None)
        engine.attach_checkpoints(mgr)
        algorithms.pagerank(engine, iterations=7)
        # boundaries 3 and 6 fall on the interval
        assert mgr.saves == 2
        assert mgr.latest().superstep == 6

    def test_keep_prunes_oldest(self):
        engine = small_engine()
        mgr = CheckpointManager(interval=1, keep=2, checkpoint_bw=None)
        engine.attach_checkpoints(mgr)
        algorithms.pagerank(engine, iterations=5)
        assert mgr.saves == 5
        assert [c.superstep for c in mgr.checkpoints] == [4, 5]


class TestSnapshotContents:
    def test_checkpoint_captures_full_engine_state(self):
        engine = small_engine()
        mgr = CheckpointManager(interval=1, checkpoint_bw=None)
        engine.attach_checkpoints(mgr)
        algorithms.pagerank(engine, iterations=3)
        ckpt = mgr.latest()
        assert ckpt.algo == "pagerank"
        assert len(ckpt.states) == engine.n_ranks
        assert all("pr" in per_rank for per_rank in ckpt.states)
        assert ckpt.nbytes > 0
        assert "iterations_run" in ckpt.algo_state
        # the layout the states were captured under is the engine's
        part = engine.partition
        assert ckpt.grid == (engine.grid.R, engine.grid.C)
        assert np.array_equal(ckpt.perm, part.perm)
        assert ckpt.localmaps == [blk.localmap for blk in part.blocks]

    def test_snapshot_is_a_copy(self):
        engine = small_engine()
        mgr = CheckpointManager(interval=1, keep=10, checkpoint_bw=None)
        engine.attach_checkpoints(mgr)
        algorithms.pagerank(engine, iterations=4)
        first, last = mgr.checkpoints[0], mgr.checkpoints[-1]
        # PageRank keeps iterating after the first boundary, so a live
        # view would have made these equal
        assert not np.array_equal(first.states[0]["pr"], last.states[0]["pr"])

    def test_checkpoint_cost_charged_to_recovery_lane(self):
        free = small_engine()
        algorithms.pagerank(free, iterations=3)
        engine = small_engine()
        engine.attach_checkpoints(CheckpointManager(interval=1))
        algorithms.pagerank(engine, iterations=3)
        assert engine.clocks.peak("recovery") > 0
        assert engine.clocks.peak("clock") > free.clocks.peak("clock")

    def test_checkpoint_bw_none_is_free(self):
        free = small_engine()
        algorithms.pagerank(free, iterations=3)
        engine = small_engine()
        engine.attach_checkpoints(CheckpointManager(interval=1, checkpoint_bw=None))
        algorithms.pagerank(engine, iterations=3)
        assert engine.clocks.peak("clock") == free.clocks.peak("clock")
        assert engine.clocks.peak("recovery") == 0.0


class TestRestore:
    def test_restore_rewinds_engine_exactly(self):
        engine = small_engine()
        mgr = CheckpointManager(interval=1, keep=10, checkpoint_bw=None)
        engine.attach_checkpoints(mgr)
        algorithms.pagerank(engine, iterations=5)
        mid = mgr.checkpoints[2]  # superstep 3
        final_pr = [a.copy() for a in engine.states("pr")]
        engine.restore(mid)
        assert not all(
            np.array_equal(a, b) for a, b in zip(engine.states("pr"), final_pr)
        )
        for rank, arr in enumerate(engine.states("pr")):
            assert np.array_equal(arr, mid.states[rank]["pr"])
        assert engine.counters.state_dict() == mid.counters
        assert len(engine.clocks.iteration_marks) == mid.superstep

    def test_resume_from_checkpoint_checks_algo_tag(self):
        engine = small_engine()
        engine.attach_checkpoints(CheckpointManager(checkpoint_bw=None))
        algorithms.pagerank(engine, iterations=3)
        with pytest.raises(ValueError, match="pagerank"):
            engine.resume_from_checkpoint("bfs")

    def test_resume_without_manager_raises(self):
        engine = small_engine()
        with pytest.raises(NoCheckpointError, match="'bfs'"):
            engine.resume_from_checkpoint("bfs")
