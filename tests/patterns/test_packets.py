"""Packet swapping tests (paper §3.3.3)."""

import numpy as np
import pytest

from repro.comm.collectives import rank_major
from repro.core.engine import Engine
from repro.graph import rmat
from repro.patterns.packets import packet_swap

from ..conftest import GRIDS

#: Packet layout: origin vertex, one float payload, dest rank.
PACKET_DTYPE = np.dtype(
    [("src", np.int64), ("payload", np.float64), ("dest", np.int64)]
)


def make_packets(src, payload, dest) -> np.ndarray:
    """A packet buffer from parallel columns."""
    out = np.empty(len(src), dtype=PACKET_DTYPE)
    out["src"], out["payload"], out["dest"] = src, payload, dest
    return out


def _engine(grid):
    return Engine(rmat(6, seed=1), grid=grid)


def swap(engine, packets: list) -> list:
    """:func:`packet_swap` of per-rank buffers, delivered per rank."""
    delivered, counts = packet_swap(engine, *rank_major(packets))
    return np.split(delivered, np.cumsum(counts)[:-1])


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
def test_all_pairs_delivery(grid):
    """Every rank sends one tagged packet to every rank; everyone must
    receive exactly one packet from each sender, unmodified."""
    engine = _engine(grid)
    p = grid.n_ranks
    packets = []
    for r in range(p):
        dests = np.arange(p, dtype=np.int64)
        packets.append(
            make_packets(
                src=np.full(p, r, dtype=np.int64),
                payload=r * 1000 + dests.astype(np.float64),
                dest=dests,
            )
        )
    delivered = swap(engine, packets)
    for r in range(p):
        inbox = delivered[r]
        assert inbox.size == p
        senders = np.sort(inbox["src"])
        assert np.array_equal(senders, np.arange(p))
        for pkt in inbox:
            assert pkt["payload"] == pkt["src"] * 1000 + r


def test_empty_buffers_flow_through():
    engine = _engine(GRIDS[4])  # 2x4
    packets = [np.empty(0, dtype=PACKET_DTYPE) for _ in range(8)]
    delivered = swap(engine, packets)
    assert all(d.size == 0 for d in delivered)


def test_uneven_fanout():
    engine = _engine(GRIDS[5])  # 4x2
    p = 8
    packets = [np.empty(0, dtype=PACKET_DTYPE) for _ in range(p)]
    # rank 3 floods rank 6 with 17 packets
    packets[3] = make_packets(
        src=np.arange(17, dtype=np.int64),
        payload=np.arange(17, dtype=np.float64),
        dest=np.full(17, 6, dtype=np.int64),
    )
    delivered = swap(engine, packets)
    assert delivered[6].size == 17
    assert np.array_equal(np.sort(delivered[6]["payload"]), np.arange(17.0))
    for r in range(p):
        if r != 6:
            assert delivered[r].size == 0


def test_out_of_range_dest_rejected():
    engine = _engine(GRIDS[1])  # 2x2
    packets = [np.empty(0, dtype=PACKET_DTYPE) for _ in range(4)]
    packets[0] = make_packets(
        src=np.array([0]), payload=np.array([1.0]), dest=np.array([9])
    )
    with pytest.raises(ValueError, match="rank 0: packet dest out of range"):
        swap(engine, packets)


def test_needs_buffer_per_rank():
    engine = _engine(GRIDS[1])
    with pytest.raises(ValueError, match="one packet count per rank"):
        packet_swap(engine, np.empty(0, dtype=PACKET_DTYPE), np.zeros(1, dtype=np.int64))


def test_custom_dtype_supported():
    """Routing only needs a 'dest' field; extra fields ride along."""
    engine = _engine(GRIDS[1])  # 2x2
    dt = np.dtype([("src", np.int64), ("a", np.int64), ("b", np.int64), ("dest", np.int64)])
    packets = [np.empty(0, dtype=dt) for _ in range(4)]
    pkt = np.empty(1, dtype=dt)
    pkt["src"], pkt["a"], pkt["b"], pkt["dest"] = 0, 42, 43, 3
    packets[0] = pkt
    delivered = swap(engine, packets)
    assert delivered[3].size == 1
    assert delivered[3]["a"][0] == 42
    assert delivered[3]["b"][0] == 43


def test_two_hop_message_accounting():
    engine = _engine(GRIDS[7])  # 4x4
    packets = [np.empty(0, dtype=PACKET_DTYPE) for _ in range(16)]
    packets[0] = make_packets(np.array([0]), np.array([1.0]), np.array([15]))
    swap(engine, packets)
    # one alltoallv per row group + one per column group
    assert engine.counters.by_kind["alltoallv"].calls == 8
