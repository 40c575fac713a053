"""CheckpointManager: snapshot, prune, restore."""

import dataclasses

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.core import NoCheckpointError
from repro.comm.grid import Grid2D
from repro.faults import CheckpointManager
from repro.graph import rmat

from ..conftest import scatter_global


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
        # each state once, a global vector in original vertex order
        assert list(ckpt.state) == list(engine.fleet.views[0])
        assert ckpt.state["pr"].shape == (engine.partition.n_vertices,)
        assert ckpt.nbytes == sum(vec.nbytes for vec in ckpt.state.values()) > 0
        assert "iterations_run" in ckpt.algo_state
        # nothing in it names the layout the states were captured under
        assert {f.name for f in dataclasses.fields(ckpt)} == {
            "superstep", "algo", "state", "counters", "clocks", "algo_state"
        }

    def test_snapshot_is_a_copy(self):
        engine = small_engine()
        mgr = CheckpointManager(interval=1, keep=10, checkpoint_bw=None)
        engine.attach_checkpoints(mgr)
        algorithms.pagerank(engine, iterations=4)
        first, last = mgr.checkpoints[0], mgr.checkpoints[-1]
        # PageRank keeps iterating after the first boundary, so a live
        # view would have made these equal
        assert not np.array_equal(first.state["pr"], last.state["pr"])

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


class TestDrain:
    """Each member of a row group drains one of R consecutive slices of
    the row window the group shares: every vertex is drained once."""

    BW = 12e9

    @pytest.mark.parametrize("R,C", [(2, 2), (3, 5), (4, 4)])
    def test_each_rank_drains_its_slice_of_its_row_window(self, R, C):
        engine = Engine(rmat(8, seed=3), grid=Grid2D(R=R, C=C))
        n, k = engine.partition.n_vertices, 3
        engine.alloc("x", np.float64, fill=1.0)
        engine.alloc("lanes", np.int32, fill=2, width=k)
        before = engine.clocks.recovery.copy()
        ckpt = CheckpointManager(checkpoint_bw=self.BW).save(engine, 1, "probe", dict)
        stall = engine.clocks.recovery - before

        fleet = engine.fleet
        start, stop = fleet.row_shares()
        cell_bytes = 8 + 4 * k
        for rank in range(engine.n_ranks):
            assert stall[rank] == (stop[rank] - start[rank]) * cell_bytes / self.BW
        for id_r in range(C):
            members = engine.grid.row_group_ranks(id_r)
            lo, hi = engine.partition.row_range(id_r)
            edges = [lo] + [int(stop[r]) for r in members]
            assert [int(start[r]) for r in members] == edges[:-1]
            assert edges[-1] == hi
        cells = int((stop - start).sum())
        assert cells == n
        assert cells * k == ckpt.state["lanes"].size
        assert ckpt.state["x"].shape == (n,) and ckpt.state["lanes"].shape == (n, k)
        assert ckpt.nbytes == ckpt.state["x"].nbytes + ckpt.state["lanes"].nbytes
        assert ckpt.nbytes == n * cell_bytes


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
        assert np.array_equal(engine.gather("pr"), mid.state["pr"])
        for rank, arr in enumerate(engine.states("pr")):
            want = scatter_global(engine.partition, mid.state["pr"], rank)
            assert arr.tobytes() == want.tobytes()
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
