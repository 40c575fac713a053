"""Split-phase collective tests: the overlap model's core invariants.

The clock-level contract (docs/MODEL.md):

* issue charges nothing — it only barriers the group to its max clock;
* complete charges the full blocking comm cost to the ``comm`` lane and
  advances the group to ``issued_at + max(elapsed, comm)``, recording
  ``min(elapsed, comm)`` in the ``overlap`` lane;
* therefore ``overlap + exposed == blocking comm`` for every collective
  (exposed being the wall-clock the completion actually added), and an
  immediate wait degenerates bit-exactly to ``sync_group``.
"""

import numpy as np
import pytest

from repro.cluster import AIMOS, CostModel, Topology
from repro.comm import Communicator, VirtualClocks
from repro.comm.collectives import rank_major


@pytest.fixture
def comm():
    topo = Topology(AIMOS, 8)
    return Communicator(CostModel(AIMOS.gpu, topo), VirtualClocks(8))


class TestClockIssueComplete:
    def test_immediate_wait_equals_sync_group(self):
        a, b = VirtualClocks(4), VirtualClocks(4)
        for c in (a, b):
            c.add_compute(0, 1.0)
            c.add_compute(1, 3.0)
        a.sync_group([0, 1], 0.5)
        b.complete_collective(b.issue_collective([0, 1], 0.5))
        assert np.array_equal(a.clock, b.clock)
        assert np.array_equal(a.comm, b.comm)
        # nothing elapsed between issue and wait -> nothing hidden
        assert b.overlap.sum() == 0.0

    def test_issue_barriers_without_charging(self):
        clocks = VirtualClocks(4)
        clocks.add_compute(0, 1.0)
        clocks.add_compute(1, 3.0)
        clocks.issue_collective([0, 1], 0.5)
        assert clocks.clock[0] == clocks.clock[1] == 3.0
        assert clocks.comm.sum() == 0.0
        assert clocks.clock[2] == 0.0

    def test_compute_fully_hidden(self):
        clocks = VirtualClocks(2)
        h = clocks.issue_collective([0, 1], 1.0)
        clocks.add_compute(0, 0.4)  # less than the comm cost
        hidden = clocks.complete_collective(h)
        assert hidden == pytest.approx(0.4)
        # clock advanced by the comm cost only: compute hid behind it
        assert clocks.clock[0] == clocks.clock[1] == pytest.approx(1.0)
        assert clocks.comm[0] == pytest.approx(1.0)
        assert clocks.overlap[0] == pytest.approx(0.4)

    def test_comm_fully_hidden(self):
        clocks = VirtualClocks(2)
        h = clocks.issue_collective([0, 1], 1.0)
        clocks.add_compute(1, 2.5)  # more than the comm cost
        hidden = clocks.complete_collective(h)
        assert hidden == pytest.approx(1.0)
        # comm entirely hidden behind the longer compute
        assert clocks.clock[0] == clocks.clock[1] == pytest.approx(2.5)
        assert clocks.comm[1] == pytest.approx(1.0)
        assert clocks.overlap[1] == pytest.approx(1.0)

    def test_double_complete_rejected(self):
        clocks = VirtualClocks(2)
        h = clocks.issue_collective([0, 1], 0.1)
        clocks.complete_collective(h)
        with pytest.raises(ValueError, match="already completed"):
            clocks.complete_collective(h)

    def test_negative_cost_rejected(self):
        clocks = VirtualClocks(2)
        with pytest.raises(ValueError):
            clocks.issue_collective([0, 1], -0.1)

    def test_overlap_plus_exposed_equals_blocking_comm(self):
        """Property: over random issue/compute/complete sequences, every
        collective's hidden plus exposed time reconstructs its blocking
        comm charge exactly: ``hidden = min(elapsed, comm)`` and the
        completion extends the group clock by ``comm - hidden``."""
        rng = np.random.default_rng(7)
        clocks = VirtualClocks(6)
        for _ in range(200):
            ranks = [
                int(r)
                for r in sorted(
                    rng.choice(6, size=int(rng.integers(2, 6)), replace=False)
                )
            ]
            comm_cost = float(rng.uniform(0.0, 2.0))
            h = clocks.issue_collective(ranks, comm_cost)
            for r in ranks:
                if rng.random() < 0.7:
                    clocks.add_compute(r, float(rng.uniform(0.0, 2.0)))
            elapsed = float(clocks.clock[ranks].max()) - h.issued_at
            hidden = clocks.complete_collective(h)
            exposed = float(clocks.clock[ranks].max()) - h.issued_at - elapsed
            assert hidden == pytest.approx(min(elapsed, comm_cost))
            assert hidden + exposed == pytest.approx(comm_cost)
        # lane containment: overlap is part of comm, never exceeds it
        assert (clocks.overlap <= clocks.comm + 1e-12).all()

    def test_blocking_and_overlapped_sequences_agree_on_lanes(self):
        """Running the same (compute, collective) schedule blocking vs
        split-phase yields identical compute/comm lanes; the overlapped
        clock is behind by exactly the per-rank hidden time."""
        rng = np.random.default_rng(11)
        steps = []
        for _ in range(50):
            ranks = sorted(
                rng.choice(4, size=int(rng.integers(2, 5)), replace=False)
            )
            steps.append(
                (
                    [int(r) for r in ranks],
                    float(rng.uniform(0.0, 1.0)),
                    [float(rng.uniform(0.0, 1.0)) for _ in ranks],
                )
            )
        blk, ovl = VirtualClocks(4), VirtualClocks(4)
        for ranks, cost, compute in steps:
            for r, c in zip(ranks, compute):
                blk.add_compute(r, c)
            blk.sync_group(ranks, cost)
            h = ovl.issue_collective(ranks, cost)
            for r, c in zip(ranks, compute):
                ovl.add_compute(r, c)
            ovl.complete_collective(h)
        assert np.array_equal(blk.compute, ovl.compute)
        assert np.array_equal(blk.comm, ovl.comm)
        assert (ovl.clock <= blk.clock + 1e-12).all()

    def test_state_dict_round_trip(self):
        clocks = VirtualClocks(3)
        h = clocks.issue_collective([0, 1], 0.5)
        clocks.add_compute(0, 0.3)
        clocks.complete_collective(h)
        restored = VirtualClocks(3)
        restored.load_state(clocks.state_dict())
        assert np.array_equal(restored.overlap, clocks.overlap)
        assert restored.peak("overlap") == clocks.peak("overlap")


class TestSplitPhaseCommunicator:
    def _fresh(self):
        topo = Topology(AIMOS, 8)
        return Communicator(CostModel(AIMOS.gpu, topo), VirtualClocks(8))

    def test_allreduce_matches_blocking(self):
        blk, ovl = self._fresh(), self._fresh()
        data = [np.array([float(r), 2.0 * r]) for r in range(4)]
        b_bufs = [d.copy() for d in data]
        o_bufs = [d.copy() for d in data]
        blk.allreduce([0, 1, 2, 3], b_bufs, op="sum")
        h = ovl.start_allreduce([0, 1, 2, 3], o_bufs, op="sum")
        # data and counters are already final at issue
        for b, o in zip(b_bufs, o_bufs):
            assert np.array_equal(b, o)
        assert blk.counters.summary() == ovl.counters.summary()
        ovl.wait(h)
        assert np.array_equal(blk.clocks.clock, ovl.clocks.clock)
        assert np.array_equal(blk.clocks.comm, ovl.clocks.comm)

    def test_allgatherv_matches_blocking(self):
        blk, ovl = self._fresh(), self._fresh()
        send = [np.arange(r + 1, dtype=np.float64) for r in range(3)]
        [expect] = blk.allgatherv_stage([[0, 1, 2]], *rank_major([s.copy() for s in send]))
        h = ovl.start_allgatherv([0, 1, 2], [s.copy() for s in send])
        assert np.array_equal(h.result, expect)
        got = ovl.wait(h)
        assert got is h.result
        assert np.array_equal(blk.clocks.clock, ovl.clocks.clock)
        assert blk.counters.summary() == ovl.counters.summary()

    def test_alltoallv_matches_blocking(self):
        blk, ovl = self._fresh(), self._fresh()

        def matrix():
            return [
                [np.full(s + d + 1, 10 * s + d, dtype=np.float64) for d in range(3)]
                for s in range(3)
            ]

        expect = blk.alltoallv([0, 1, 2], matrix())
        h = ovl.start_alltoallv([0, 1, 2], matrix())
        for e, g in zip(expect, h.result):
            assert np.array_equal(e, g)
        ovl.wait(h)
        assert np.array_equal(blk.clocks.clock, ovl.clocks.clock)
        assert blk.counters.summary() == ovl.counters.summary()

    def test_compute_between_issue_and_wait_is_hidden(self, comm):
        bufs = [np.ones(1024) for _ in range(4)]
        h = comm.start_allreduce([0, 1, 2, 3], bufs, op="sum")
        comm.clocks.add_compute(0, 10.0)  # dwarfs the comm cost
        comm.wait(h)
        # comm fully hidden: the clock is compute-bound
        assert comm.clocks.clock[0] == pytest.approx(10.0)
        assert comm.clocks.overlap[0] == pytest.approx(comm.clocks.comm[0])
