"""Communication counter tests."""

import numpy as np

from repro.cluster import AIMOS, CostModel, Topology
from repro.comm import CommCounters, Communicator, VirtualClocks
from repro.comm.collectives import rank_major
from repro.core.trace import _delta


class TestCounters:
    def test_record_and_totals(self):
        c = CommCounters()
        c.record("allreduce", serial_messages=4, transfers=12, nbytes=1000)
        c.record("allreduce", serial_messages=4, transfers=12, nbytes=500)
        c.record("broadcast", serial_messages=2, transfers=2, nbytes=100)
        assert c.total_calls == 3
        assert c.total_serial_messages == 10
        assert c.total_transfers == 26
        assert c.total_bytes == 1600

    def test_by_kind(self):
        c = CommCounters()
        c.record("allgatherv", serial_messages=3, transfers=6, nbytes=64)
        stats = c.by_kind["allgatherv"]
        assert stats.calls == 1
        assert stats.serial_messages == 3

    def test_merge(self):
        a, b = CommCounters(), CommCounters()
        a.record("x", 1, 1, 10)
        b.record("x", 2, 2, 20)
        b.record("y", 3, 3, 30)
        a.merge(b)
        assert a.by_kind["x"].serial_messages == 3
        assert a.by_kind["y"].bytes == 30
        assert a.total_calls == 3

    def test_summary_shape(self):
        c = CommCounters()
        c.record("sendrecv", 1, 1, 8)
        s = c.summary()
        assert s == {
            "sendrecv": {
                "calls": 1,
                "serial_messages": 1,
                "transfers": 1,
                "bytes": 8,
            }
        }

    def test_ring_collectives_record_the_group_s_total_ring_traffic(self):
        """On a 4-member group: an AllReduce of one 8-byte word sends
        2 · (k − 1) chunks of 8 / k bytes from each member, 2 · 8 · 3
        in all; an AllGatherv of 1 + 2 + 0 + 3 words delivers each
        member all but its own part, 48 · 3 in all."""
        ranks = [0, 1, 2, 3]
        comm = Communicator(CostModel(AIMOS.gpu, Topology(AIMOS, 4)), VirtualClocks(4))
        comm.allreduce(ranks, [np.ones(1) for _ in ranks])
        sizes = [1, 2, 0, 3]
        send, counts = rank_major([np.ones(s) for s in sizes])
        comm.allgatherv_stage([ranks], send, counts)
        k, n, total = len(ranks), 8, 8 * sum(sizes)
        assert comm.counters.by_kind["allreduce"].bytes == 2 * n * (k - 1) == 48
        received = sum(total - 8 * s for s in sizes)
        assert comm.counters.by_kind["allgatherv"].bytes == total * (k - 1) == received == 144

    def test_empty_totals(self):
        c = CommCounters()
        assert c.total_bytes == 0
        assert c.summary() == {}


class TestSnapshots:
    """Counter marks are ``state_dict()`` copies; ``_delta`` subtracts
    two of them exactly, the way ``TraceRecorder`` does."""

    def test_snapshot_is_immutable_copy(self):
        c = CommCounters()
        c.record("allreduce", 2, 4, 100)
        snap = c.state_dict()
        c.record("allreduce", 2, 4, 100)
        assert snap["allreduce"]["bytes"] == 100  # unchanged by later records
        assert c.total_bytes == 200

    def test_delta_is_exact_per_kind(self):
        c = CommCounters()
        c.record("allreduce", 2, 4, 100)
        before = c.state_dict()
        c.record("allreduce", 2, 4, 50)
        c.record("broadcast", 1, 1, 10)
        delta = _delta(c.state_dict(), before)
        assert delta == {
            "allreduce": {
                "calls": 1, "serial_messages": 2, "transfers": 4, "bytes": 50,
            },
            "broadcast": {
                "calls": 1, "serial_messages": 1, "transfers": 1, "bytes": 10,
            },
        }
        assert list(delta) == sorted(delta)

    def test_delta_drops_idle_kinds(self):
        c = CommCounters()
        c.record("sendrecv", 1, 1, 8)
        before = c.state_dict()
        c.record("allgatherv", 3, 6, 64)
        delta = _delta(c.state_dict(), before)
        assert "sendrecv" not in delta
        assert sum(s["bytes"] for s in delta.values()) == 64

    def test_empty_snapshot_and_truthiness(self):
        c = CommCounters()
        assert not _delta(c.state_dict(), {})
        c.record("x", 1, 1, 1)
        assert _delta(c.state_dict(), {})
        assert not _delta(c.state_dict(), c.state_dict())

    def test_snapshot_minus_empty_equals_totals(self):
        c = CommCounters()
        c.record("x", 1, 2, 3)
        c.record("y", 4, 5, 6)
        delta = _delta(c.state_dict(), {})
        assert delta == c.summary()
        assert sum(s["serial_messages"] for s in delta.values()) == c.total_serial_messages
        assert sum(s["transfers"] for s in delta.values()) == c.total_transfers
        assert sum(s["bytes"] for s in delta.values()) == c.total_bytes
        assert sum(s["calls"] for s in delta.values()) == c.total_calls
