"""Virtual clock tests."""

import pytest

import numpy as np

from repro.comm import CommCounters, VirtualClocks
from repro.comm.clocks import LANES
from repro.core.trace import _delta


class TestCharging:
    def test_compute_advances_only_one_rank(self):
        clocks = VirtualClocks(4)
        clocks.add_compute(1, 0.5)
        assert clocks.clock[1] == 0.5
        assert clocks.clock[0] == 0.0
        assert clocks.compute[1] == 0.5

    def test_sync_group_waits_for_slowest(self):
        clocks = VirtualClocks(4)
        clocks.add_compute(0, 1.0)
        clocks.add_compute(1, 3.0)
        clocks.sync_group([0, 1], 0.5)
        # both end at max(1, 3) + 0.5
        assert clocks.clock[0] == clocks.clock[1] == 3.5
        assert clocks.comm[0] == clocks.comm[1] == 0.5

    def test_sync_leaves_other_ranks(self):
        clocks = VirtualClocks(4)
        clocks.sync_group([0, 1], 1.0)
        assert clocks.clock[2] == 0.0

    def test_subgroups_progress_independently(self):
        clocks = VirtualClocks(4)
        clocks.sync_group([0, 1], 1.0)
        clocks.sync_group([2, 3], 5.0)
        assert clocks.clock[0] == 1.0
        assert clocks.clock[3] == 5.0

    def test_negative_time_rejected(self):
        clocks = VirtualClocks(2)
        with pytest.raises(ValueError):
            clocks.add_compute(0, -1.0)
        with pytest.raises(ValueError):
            clocks.sync_group([0, 1], -0.1)

    def test_needs_ranks(self):
        with pytest.raises(ValueError):
            VirtualClocks(0)


class TestReporting:
    def test_snapshot_is_max_over_ranks(self):
        clocks = VirtualClocks(3)
        clocks.add_compute(0, 1.0)
        clocks.add_compute(1, 4.0)
        snap = clocks.snapshot()
        assert snap.total == 4.0
        assert snap.compute == 4.0
        assert snap.comm == 0.0

    def test_iteration_marks_deltas(self):
        clocks = VirtualClocks(2)
        clocks.add_compute(0, 1.0)
        d1 = clocks.mark_iteration()
        clocks.sync_group([0, 1], 2.0)
        d2 = clocks.mark_iteration()
        assert d1.total == pytest.approx(1.0)
        assert d2.total == pytest.approx(2.0)
        assert d2.comm == pytest.approx(2.0)

    def test_elapsed(self):
        clocks = VirtualClocks(2)
        clocks.add_compute(1, 2.5)
        assert clocks.peak("clock") == 2.5
        assert clocks.peak("compute") == 2.5
        assert clocks.peak("recovery") == 0.0

    def test_phase_subtraction(self):
        clocks = VirtualClocks(1)
        clocks.add_compute(0, 1.0)
        a = clocks.snapshot()
        clocks.add_compute(0, 2.0)
        b = clocks.snapshot()
        d = b - a
        assert d.total == pytest.approx(2.0)
        assert d.compute == pytest.approx(2.0)


class TestCounterMarks:
    def test_marks_snapshot_attached_counters(self):
        counters = CommCounters()
        clocks = VirtualClocks(2, counters=counters)
        counters.record("allreduce", 2, 4, 100)
        clocks.mark_iteration()
        counters.record("allreduce", 2, 4, 60)
        clocks.mark_iteration()
        assert len(clocks.counter_marks) == 2
        assert clocks.counter_marks[0]["allreduce"]["bytes"] == 100
        assert clocks.counter_marks[1]["allreduce"]["bytes"] == 160
        delta = _delta(clocks.counter_marks[1], clocks.counter_marks[0])
        assert delta["allreduce"]["bytes"] == 60
        assert delta["allreduce"]["calls"] == 1

    def test_no_counters_means_no_marks(self):
        clocks = VirtualClocks(2)
        clocks.mark_iteration()
        assert clocks.counter_marks == []


class TestLanes:
    def test_lanes_are_one_table_with_named_rows(self):
        clocks = VirtualClocks(3)
        assert clocks.lanes.shape == (len(LANES), 3)
        clocks.sync_group([0, 1], 0.5)
        for i, lane in enumerate(LANES):
            assert np.shares_memory(getattr(clocks, lane), clocks.lanes[i])
        assert list(clocks.lanes[LANES.index("comm")]) == [0.5, 0.5, 0.0]
        clocks.reset()
        assert not clocks.lanes.any()
        assert np.shares_memory(clocks.comm, clocks.lanes)

    @pytest.mark.parametrize("lane", ["recovery", "regrid", "certify"])
    def test_charge_is_comm_time_the_lane_annotates(self, lane):
        clocks = VirtualClocks(3)
        clocks.add_compute(0, 1.0)
        clocks.charge(lane, [0, 1], 0.25)
        assert list(clocks.clock) == [1.25, 1.25, 0.0]
        assert list(clocks.comm) == [0.25, 0.25, 0.0]
        assert list(getattr(clocks, lane)) == [0.25, 0.25, 0.0]
        assert clocks.peak(lane) == 0.25
        others = set(LANES) - {"clock", "compute", "comm", lane}
        assert all(clocks.peak(other) == 0.0 for other in others)

    def test_charge_rejects_other_lanes_and_negative_time(self):
        clocks = VirtualClocks(2)
        with pytest.raises(ValueError, match="lane"):
            clocks.charge("comm", [0, 1], 1.0)
        with pytest.raises(ValueError, match="negative"):
            clocks.charge("recovery", [0, 1], -1.0)

    def test_state_round_trips_and_aligns_every_lane(self):
        clocks = VirtualClocks(2)
        for i, lane in enumerate(LANES):
            getattr(clocks, lane)[1] = float(i + 1)
        state = clocks.state_dict()
        assert set(LANES) <= set(state)
        restored = VirtualClocks(2)
        restored.load_state(state)
        assert np.array_equal(restored.lanes, clocks.lanes)
        aligned = VirtualClocks.align_state(state, 3)
        assert all(list(aligned[lane]) == [i + 1.0] * 3 for i, lane in enumerate(LANES))
