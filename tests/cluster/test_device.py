"""Device memory ledger tests."""

import dataclasses

import pytest

from repro.cluster import V100, DeviceLedger, DeviceMemoryError

from ..conftest import ledger_entries


class TestCharging:
    def test_charge_and_release(self):
        dev = DeviceLedger(1, V100)
        dev.charge({"csr": 1000})
        dev.charge({"state": 500})
        assert dev.allocated[0] == 1500
        dev.release("csr")
        assert dev.allocated[0] == 500

    def test_peak_tracks_high_water(self):
        dev = DeviceLedger(1, V100)
        dev.charge({"a": 1000})
        dev.release("a")
        dev.charge({"b": 100})
        assert dev.peak[0] == 1000

    def test_same_label_accumulates(self):
        dev = DeviceLedger(1, V100)
        dev.charge({"x": 10})
        dev.charge({"x": 20})
        assert ledger_entries(dev, 0) == {"x": 30}
        dev.release("x")
        assert dev.allocated[0] == 0

    def test_negative_charge_rejected(self):
        dev = DeviceLedger(1, V100)
        with pytest.raises(ValueError):
            dev.charge({"bad": -1})

    def test_release_unknown_label_is_noop(self):
        dev = DeviceLedger(1, V100)
        dev.release("never")
        assert dev.allocated[0] == 0


class TestOOM:
    def test_enforced_oom_raises(self):
        dev = DeviceLedger(4, V100, enforce=True)
        with pytest.raises(DeviceMemoryError) as exc:
            dev.charge({"huge": V100.memory_bytes + 1}, [3])
        assert exc.value.rank == 3
        assert "rank 3" in str(exc.value)

    def test_unenforced_records_oversubscription(self):
        dev = DeviceLedger(1, V100, enforce=False)
        dev.charge({"huge": 2 * V100.memory_bytes})
        assert dev.peak[0] > V100.memory_bytes

    def test_scale_factor_models_full_size(self):
        # Simulating at 1/1000 scale but accounting full footprints.
        dev = DeviceLedger(1, V100, scale_factor=1000.0, enforce=False)
        dev.charge({"csr": V100.memory_bytes // 500})
        assert dev.peak[0] > V100.memory_bytes


class TestLedgerTable:
    """Every rank's ledger is one (labels x ranks) table; a charge of
    several labels is checked as charging rank after rank would."""

    TINY = dataclasses.replace(V100, memory_bytes=100)

    def test_a_charge_on_some_columns_leaves_the_rest(self):
        ledger = DeviceLedger(3, V100)
        ledger.charge({"a": [1, 2, 3]})
        ledger.charge({"b": 10}, [1])
        assert [ledger_entries(ledger, r) for r in range(3)] == [
            {"a": 1}, {"a": 2, "b": 10}, {"a": 3},
        ]
        assert ledger.allocated.tolist() == [1, 12, 3]
        ledger.release("a")
        assert ledger.allocated.tolist() == [0, 10, 0]
        assert ledger.peak.tolist() == [1, 12, 3]
        assert [ledger_entries(ledger, r) for r in range(3)] == [{}, {"b": 10}, {}]

    def test_the_first_rank_to_overflow_is_named_and_nothing_is_charged(self):
        ledger = DeviceLedger(3, self.TINY)
        # label by label, rank 2 would fail first (on "a"); rank after
        # rank, rank 0 fails first (on "b")
        with pytest.raises(DeviceMemoryError) as exc:
            ledger.charge({"a": [10, 10, 200], "b": [150, 0, 0]})
        assert exc.value.rank == 0
        assert exc.value.requested == 150
        assert str(exc.value) == (
            "rank 0 (V100-32GB): allocation of 150 bytes exceeds capacity (0/100 in use)"
        )
        assert ledger.allocated.tolist() == [0, 0, 0]
        assert all(ledger_entries(ledger, r) == {} for r in range(3))

    def test_an_engine_charges_its_structure_in_one_table(self):
        from repro import Engine
        from repro.graph import rmat

        engine = Engine(rmat(7, seed=1), 4)
        for ctx in engine:
            held = ledger_entries(engine.devices, ctx.rank)
            assert sorted(held) == ["graph.degrees", "graph.indices", "graph.indptr"]
            assert held["graph.indptr"] == ctx.block.indptr.nbytes
            assert held["graph.degrees"] == 8 * ctx.n_total
