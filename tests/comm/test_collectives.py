"""Collective operation tests: data movement + accounting."""

import numpy as np
import pytest

from repro.cluster import AIMOS, CostModel, Topology
from repro.comm import BroadcastCall, Communicator, VirtualClocks
from repro.comm.collectives import rank_major


@pytest.fixture
def comm():
    topo = Topology(AIMOS, 8)
    return Communicator(CostModel(AIMOS.gpu, topo), VirtualClocks(8))


class TestAllReduce:
    @pytest.mark.parametrize(
        "op,expect",
        [
            ("sum", [6.0, 9.0]),
            ("min", [1.0, 2.0]),
            ("max", [3.0, 4.0]),
            ("prod", [6.0, 24.0]),
        ],
    )
    def test_ops(self, comm, op, expect):
        bufs = [
            np.array([1.0, 3.0]),
            np.array([2.0, 2.0]),
            np.array([3.0, 4.0]),
        ]
        comm.allreduce([0, 1, 2], bufs, op=op)
        for b in bufs:
            assert np.array_equal(b, expect)

    def test_views_update_parent_arrays(self, comm):
        states = [np.zeros(6), np.ones(6)]
        comm.allreduce([0, 1], [s[2:4] for s in states], op="sum")
        assert np.array_equal(states[0], [0, 0, 1, 1, 0, 0])

    def test_boolean_ops(self, comm):
        bufs = [np.array([True, False]), np.array([True, True])]
        comm.allreduce([0, 1], bufs, op="and")
        assert np.array_equal(bufs[0], [True, False])

    def test_single_rank_noop(self, comm):
        buf = [np.array([5.0])]
        comm.allreduce([0], buf, op="sum")
        assert buf[0][0] == 5.0

    def test_unknown_op(self, comm):
        with pytest.raises(ValueError):
            comm.allreduce([0, 1], [np.zeros(1), np.zeros(1)], op="xor")

    def test_mismatched_buffers(self, comm):
        with pytest.raises(ValueError):
            comm.allreduce([0, 1], [np.zeros(1)])

    def test_group_mismatch_names_counts(self, comm):
        with pytest.raises(ValueError) as exc:
            comm.allreduce([0, 1, 2], [np.zeros(1), np.zeros(1)])
        msg = str(exc.value)
        assert "3 ranks" in msg and "2 buffers" in msg
        assert "[0, 1, 2]" in msg

    def test_shape_skew_names_offending_rank(self, comm):
        with pytest.raises(ValueError) as exc:
            comm.allreduce(
                [0, 3, 5], [np.zeros(4), np.zeros(5), np.zeros(4)]
            )
        msg = str(exc.value)
        assert "rank 3" in msg and "(5,)" in msg
        assert "rank 0" in msg and "(4,)" in msg  # the reference rank
        assert "rank 5" not in msg  # conforming ranks are not accused

    def test_dtype_skew_names_offending_rank(self, comm):
        with pytest.raises(ValueError) as exc:
            comm.allreduce(
                [0, 1],
                [np.zeros(2, dtype=np.float64), np.zeros(2, dtype=np.int64)],
            )
        msg = str(exc.value)
        assert "rank 1" in msg and "int64" in msg

    def test_charges_time_and_counters(self, comm):
        comm.allreduce([0, 1, 2], [np.zeros(100)] * 3, op="sum")
        assert comm.clocks.peak("clock") > 0
        stats = comm.counters.by_kind["allreduce"]
        assert stats.calls == 1
        assert stats.serial_messages == 4  # 2(k-1)


class TestBroadcast:
    def test_copies_from_root(self, comm):
        src, dests = np.array([1.0, 2.0, 3.0]), [np.zeros(3), np.zeros(3)]
        comm.broadcast_stage([[0, 1, 2]], [BroadcastCall(src, dests)])
        for b in dests:
            assert np.array_equal(b, [1.0, 2.0, 3.0])
        stats = comm.counters.by_kind["broadcast"]
        assert (stats.calls, stats.serial_messages, stats.transfers) == (1, 2, 2)
        assert stats.bytes == 2 * src.nbytes
        assert comm.clocks.comm[0] == comm.costmodel.broadcast_time([0, 1, 2], src.nbytes)

    def test_bad_root(self, comm):
        # two ranks, two destinations: the root is not in the group
        with pytest.raises(ValueError, match="at most 1 destinations"):
            comm.broadcast_stage([[0, 1]], [BroadcastCall(np.zeros(1), [np.zeros(1)] * 2)])

    def test_grouped_broadcast(self, comm):
        s1, s2 = np.array([1.0]), np.array([2.0, 3.0])
        d1, d2a, d2b = np.zeros(1), np.zeros(2), np.zeros(2)
        comm.grouped_broadcast_stage(
            [[0, 1, 2]],
            [[BroadcastCall(src=s1, dests=[d1]), BroadcastCall(src=s2, dests=[d2a, d2b])]],
        )
        assert d1[0] == 1.0
        assert np.array_equal(d2a, [2.0, 3.0])
        assert np.array_equal(d2b, [2.0, 3.0])

    def test_grouped_broadcast_empty(self, comm):
        before = comm.clocks.state_dict()
        comm.grouped_broadcast_stage([[0, 1]], [[]])
        assert comm.clocks.peak("clock") == 0.0
        assert all(np.array_equal(comm.clocks.state_dict()[k], v) for k, v in before.items())
        assert comm.counters.summary() == {}


class TestAllGatherv:
    def test_concatenates_in_rank_order(self, comm):
        bufs = [np.array([1.0]), np.array([]), np.array([2.0, 3.0])]
        [out] = comm.allgatherv_stage([[0, 1, 2]], *rank_major(bufs))
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_structured_dtype(self, comm):
        dt = np.dtype([("gid", np.int64), ("val", np.float64)])
        a = np.array([(1, 0.5)], dtype=dt)
        b = np.array([(2, 0.7), (3, 0.9)], dtype=dt)
        [out] = comm.allgatherv_stage([[0, 1]], *rank_major([a, b]))
        assert out.size == 3
        assert out["gid"].tolist() == [1, 2, 3]

    def test_dtype_skew_rejected_with_offenders(self, comm):
        with pytest.raises(ValueError) as exc:
            comm.start_allgatherv(
                [2, 4], [np.zeros(2, dtype=np.float64), np.zeros(3, dtype=np.float32)]
            )
        msg = str(exc.value)
        assert "one dtype" in msg
        assert "rank 2" in msg and "float64" in msg
        assert "rank 4" in msg and "float32" in msg

    def test_counters_volume(self, comm):
        bufs = [np.zeros(10), np.zeros(20)]
        comm.allgatherv_stage([[0, 1]], *rank_major(bufs))
        assert comm.counters.by_kind["allgatherv"].bytes == 30 * 8  # (k-1)*total


class TestPointToPoint:
    def test_alltoallv_routing(self, comm):
        k = 3
        matrix = [
            [np.array([float(10 * i + j)]) for j in range(k)] for i in range(k)
        ]
        out = comm.alltoallv([0, 1, 2], matrix)
        # member j receives column j in row order
        assert np.array_equal(out[1], [1.0, 11.0, 21.0])

    def test_alltoallv_shape_check(self, comm):
        with pytest.raises(ValueError):
            comm.alltoallv([0, 1], [[np.zeros(1)]])

    def test_alltoallv_joins_structured_parts_as_sent(self, comm):
        dt = np.dtype([("gid", np.int64), ("val", np.float64)])
        matrix = [
            [np.array([(10 * i + j, i + j / 2)] * (i + 1), dtype=dt) for j in range(3)]
            for i in range(3)
        ]
        out = comm.alltoallv([0, 1, 2], matrix)
        for j in range(3):
            assert out[j].dtype == dt
            assert out[j].tobytes() == b"".join(matrix[i][j].tobytes() for i in range(3))
        assert comm.counters.by_kind["alltoallv"].bytes == 3 * 6 * dt.itemsize

    def test_alltoallv_refuses_senders_of_another_dtype(self, comm):
        """Rows of one dtype each, but not the same one: refused, naming
        the sender, rather than promoted in the join."""
        matrix = [[np.zeros(1), np.zeros(1)], [np.zeros(1, np.int64), np.zeros(1, np.int64)]]
        with pytest.raises(ValueError, match="one dtype.*rank 1: dtype int64"):
            comm.alltoallv([0, 1], matrix)

    def test_alltoallv_message_count(self, comm):
        k = 4
        matrix = [[np.zeros(1) for _ in range(k)] for _ in range(k)]
        comm.alltoallv([0, 1, 2, 3], matrix)
        assert comm.counters.by_kind["alltoallv"].serial_messages == k * (k - 1)


class TestSharingAndProfiles:
    def test_nic_sharing_increases_charged_time(self):
        topo = Topology(AIMOS, 24)
        model = CostModel(AIMOS.gpu, topo)
        c1 = Communicator(model, VirtualClocks(24))
        c2 = Communicator(model, VirtualClocks(24))
        ranks = [0, 6, 12]
        bufs1 = [np.zeros(10000) for _ in ranks]
        bufs2 = [np.zeros(10000) for _ in ranks]
        c1.allreduce(ranks, bufs1, op="sum")
        c2.allreduce(ranks, bufs2, op="sum", nic_sharing=6)
        assert c2.clocks.peak("clock") > c1.clocks.peak("clock")

    def test_generic_profile_slower_through_communicator(self):
        from repro.cluster import GENERIC_PROFILE

        topo = Topology(AIMOS, 12)
        nccl = Communicator(CostModel(AIMOS.gpu, topo), VirtualClocks(12))
        gen = Communicator(
            CostModel(AIMOS.gpu, topo, GENERIC_PROFILE), VirtualClocks(12)
        )
        ranks = list(range(12))
        nccl.allgatherv_stage([ranks], np.zeros(100 * 12), np.full(12, 100))
        gen.allgatherv_stage([ranks], np.zeros(100 * 12), np.full(12, 100))
        assert gen.clocks.peak("clock") > nccl.clocks.peak("clock")

    def test_data_identical_across_profiles(self):
        from repro.cluster import GENERIC_PROFILE

        topo = Topology(AIMOS, 4)
        for profile in (None, GENERIC_PROFILE):
            model = (
                CostModel(AIMOS.gpu, topo, profile)
                if profile
                else CostModel(AIMOS.gpu, topo)
            )
            comm = Communicator(model, VirtualClocks(4))
            bufs = [np.array([float(i)]) for i in range(4)]
            comm.allreduce([0, 1, 2, 3], bufs, op="sum")
            assert bufs[0][0] == 6.0  # profile changes time, never data
