"""Packet swapping tests (paper §3.3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import rank_major
from repro.core.engine import Engine
from repro.graph import rmat
from repro.patterns.packets import packet_swap

from ..conftest import GRIDS, record_stages

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


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from(GRIDS), overlap=st.booleans(), seed=st.integers(0, 2**31))
def test_every_packet_reaches_its_dest_through_one_row_and_one_column_hop(grid, overlap, seed):
    """Hop 1: each rank sends its row group's ``j``-th member the
    packets bound for the ``j``-th member of their destination's row
    group, in its own order.  Hop 2: each rank sends its column
    group's ``i``-th member the packets it holds for a rank of that
    member's row group.  So a rank receives exactly the packets bound
    for it, ordered by the column-group position of the rank that
    relayed them, then by the row-group position of their sender, then
    in the sender's order."""
    rng = np.random.default_rng(seed)
    engine = Engine(rmat(6, seed=1), grid=grid, overlap=overlap)
    p = grid.n_ranks
    row_of, col_of = {}, {}
    for _, members in engine.row_groups():
        row_of.update({r: (members, i) for i, r in enumerate(members)})
    for _, members in engine.col_groups():
        col_of.update({r: (members, i) for i, r in enumerate(members)})
    packets = []
    for r in range(p):
        n = int(rng.integers(0, 6))
        packets.append(make_packets(np.full(n, r), rng.random(n), rng.integers(0, p, size=n)))
    via = {}  # (sender, index) -> the rank of the sender's row group that relays it
    for r, buf in enumerate(packets):
        for i, d in enumerate(buf["dest"]):
            via[r, i] = row_of[r][0][row_of[int(d)][1]]
            assert via[r, i] in col_of[int(d)][0]
    with pytest.MonkeyPatch.context() as patch:
        stages = record_stages(patch)
        delivered = swap(engine, packets)

    hop1, hop2 = stages
    assert hop1["groups"] == [m for _, m in engine.row_groups()]
    assert hop2["groups"] == [m for _, m in engine.col_groups()]
    for r, buf in enumerate(packets):
        members, _ = row_of[r]
        for j, m in enumerate(members):
            bound = [i for i in range(buf.size) if via[r, i] == m]
            assert hop1["sends"][r][j].tobytes() == buf[bound].tobytes()
    for d in range(p):
        want = sorted(
            (col_of[via[r, i]][1], row_of[r][1], i, r)
            for r, buf in enumerate(packets) for i in range(buf.size) if buf["dest"][i] == d
        )
        got = delivered[d]
        assert got.tobytes() == b"".join(packets[r][i : i + 1].tobytes() for *_, i, r in want)
        relay = col_of[d][0]
        for k, m in enumerate(relay):  # what the relays sent d
            assert hop2["sends"][m][col_of[d][1]].tobytes() == b"".join(
                packets[r][i : i + 1].tobytes() for c, _, i, r in want if c == k
            )
