"""Virtual GPU memory ledger tests."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import V100, DeviceLedger, DeviceMemoryError, VirtualGPU


class TestCharging:
    def test_charge_and_release(self):
        dev = VirtualGPU(rank=0, spec=V100)
        dev.charge("csr", 1000)
        dev.charge("state", 500)
        assert dev.allocated_bytes == 1500
        dev.release("csr")
        assert dev.allocated_bytes == 500

    def test_peak_tracks_high_water(self):
        dev = VirtualGPU(rank=0, spec=V100)
        dev.charge("a", 1000)
        dev.release("a")
        dev.charge("b", 100)
        assert dev.peak_bytes == 1000

    def test_charge_array(self):
        dev = VirtualGPU(rank=0, spec=V100)
        arr = np.zeros(128, dtype=np.float64)
        dev.charge_array("arr", arr)
        assert dev.allocated_bytes == arr.nbytes

    def test_same_label_accumulates(self):
        dev = VirtualGPU(rank=0, spec=V100)
        dev.charge("x", 10)
        dev.charge("x", 20)
        assert dev.ledger["x"] == 30
        dev.release("x")
        assert dev.allocated_bytes == 0

    def test_negative_charge_rejected(self):
        dev = VirtualGPU(rank=0, spec=V100)
        with pytest.raises(ValueError):
            dev.charge("bad", -1)

    def test_release_unknown_label_is_noop(self):
        dev = VirtualGPU(rank=0, spec=V100)
        dev.release("never")
        assert dev.allocated_bytes == 0


class TestOOM:
    def test_enforced_oom_raises(self):
        dev = VirtualGPU(rank=3, spec=V100, enforce=True)
        with pytest.raises(DeviceMemoryError) as exc:
            dev.charge("huge", V100.memory_bytes + 1)
        assert exc.value.device is dev
        assert "rank 3" in str(exc.value)

    def test_unenforced_records_oversubscription(self):
        dev = VirtualGPU(rank=0, spec=V100, enforce=False)
        dev.charge("huge", 2 * V100.memory_bytes)
        assert dev.oversubscribed
        assert dev.utilization() > 1.0

    def test_scale_factor_models_full_size(self):
        # Simulating at 1/1000 scale but accounting full footprints.
        dev = VirtualGPU(rank=0, spec=V100, scale_factor=1000.0, enforce=False)
        dev.charge("csr", V100.memory_bytes // 500)
        assert dev.oversubscribed

    def test_free_bytes(self):
        dev = VirtualGPU(rank=0, spec=V100)
        dev.charge("x", 2**20)
        assert dev.free_bytes == V100.memory_bytes - 2**20


class TestLedgerTable:
    """Every rank's ledger is one (labels x ranks) table; a charge of
    several labels is checked as charging rank after rank would."""

    TINY = dataclasses.replace(V100, memory_bytes=100)

    def test_views_read_the_table(self):
        ledger = DeviceLedger(3, V100)
        ledger.charge({"a": [1, 2, 3]})
        ledger.device(1).charge("b", 10)
        assert [ledger.device(r).ledger for r in range(3)] == [
            {"a": 1}, {"a": 2, "b": 10}, {"a": 3},
        ]
        assert ledger.allocated.tolist() == [1, 12, 3]
        ledger.release("a")
        assert ledger.allocated.tolist() == [0, 10, 0]
        assert ledger.peak.tolist() == [1, 12, 3]
        assert [ledger.device(r).ledger for r in range(3)] == [{}, {"b": 10}, {}]

    def test_the_first_rank_to_overflow_is_named_and_nothing_is_charged(self):
        ledger = DeviceLedger(3, self.TINY)
        # label by label, rank 2 would fail first (on "a"); rank after
        # rank, rank 0 fails first (on "b")
        with pytest.raises(DeviceMemoryError) as exc:
            ledger.charge({"a": [10, 10, 200], "b": [150, 0, 0]})
        assert exc.value.device is ledger.device(0)
        assert exc.value.requested == 150
        assert ledger.allocated.tolist() == [0, 0, 0]
        assert all(ledger.device(r).ledger == {} for r in range(3))

    def test_an_engine_charges_its_structure_in_one_table(self):
        from repro import Engine
        from repro.graph import rmat

        engine = Engine(rmat(7, seed=1), 4)
        for ctx in engine:
            assert sorted(ctx.device.ledger) == ["graph.indices", "graph.indptr"]
            assert ctx.device is engine.devices.device(ctx.rank)
            assert ctx.device.ledger["graph.indptr"] == ctx.block.indptr.nbytes
