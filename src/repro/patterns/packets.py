"""Packet swapping: arbitrary rank-to-rank messaging on the 2D grid
(paper §3.3.3, "Packet Swapping").

Some applications (pointer jumping, least-common-ancestor traversals)
propagate information between vertices that are not graph neighbors, so
the structured row/column state exchanges do not apply.  The paper
wraps such updates in information *packets* — ``{origin, payload,
destination}`` records — and delivers them with one set of row-group
communications followed by one set of column-group communications:
a packet from rank ``(i, j)`` to rank ``(i', j')`` first moves along
row group ``i`` to the rank in block-column ``j'``, then along column
group ``j'`` to block-row ``i'``.  Any pair of ranks is thus reachable
in two group-local hops, preserving the 2D message-count scaling.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine

__all__ = ["packet_swap"]


def _split_by(packets: np.ndarray, keys: np.ndarray, n_bins: int) -> list[np.ndarray]:
    """Partition a packet buffer into ``n_bins`` by integer key."""
    order = np.argsort(keys, kind="stable")
    sorted_pkts = packets[order]
    sorted_keys = keys[order]
    bounds = np.searchsorted(sorted_keys, np.arange(n_bins + 1))
    return [sorted_pkts[bounds[b] : bounds[b + 1]] for b in range(n_bins)]


def packet_swap(engine: Engine, packets: list[np.ndarray]) -> list[np.ndarray]:
    """Deliver per-rank packet buffers to their ``dest`` ranks.

    ``packets[r]`` is a structured array with (at least) a ``dest``
    field holding destination rank ids.  Returns the per-rank received
    buffers.  Routing is row-then-column as described in the module
    docstring; each hop is a personalized exchange within one group.
    """
    grid = engine.grid
    if len(packets) != grid.n_ranks:
        raise ValueError("need one packet buffer per rank")
    for r, buf in enumerate(packets):
        if buf.size and (buf["dest"].min() < 0 or buf["dest"].max() >= grid.n_ranks):
            raise ValueError(f"rank {r}: packet dest out of range")

    row_share = engine.stage_nic_sharing("row")
    col_share = engine.stage_nic_sharing("col")

    # Hop 1: along each row group, move packets to their destination
    # block-column.  Splits are per-rank compute (parallel); the
    # personalized exchanges stay sequential per group.
    def split_cols(ctx) -> list[np.ndarray]:
        buf = packets[ctx.rank]
        dest_cols = (buf["dest"] % grid.R).astype(np.int64)
        engine.charge_vertices(ctx.rank, buf.size)
        return _split_by(buf, dest_cols, grid.R)

    splits = engine.map_ranks(split_cols)
    staged: list[np.ndarray] = [None] * grid.n_ranks  # type: ignore[list-item]
    # On an overlapped engine hop 1 is issued split-phase: the staged
    # buffers materialize at issue, the hop-2 splits compute against
    # them while the exchanges are in flight, and the comm charge lands
    # at the wait below (hiding the split compute).  See docs/MODEL.md.
    handles = []
    for id_r, ranks in engine.row_groups():
        if engine.overlap:
            h = engine.comm.start_alltoallv(
                ranks, [splits[r] for r in ranks], nic_sharing=row_share
            )
            handles.append(h)
            received = h.result
        else:
            received = engine.comm.alltoallv(
                ranks, [splits[r] for r in ranks], nic_sharing=row_share
            )
        for pos, r in enumerate(ranks):
            staged[r] = received[pos]

    # Hop 2: along each column group, move packets to their destination
    # block-row.
    def split_rows(ctx) -> list[np.ndarray]:
        buf = staged[ctx.rank]
        dest_rows = (buf["dest"] // grid.R).astype(np.int64)
        engine.charge_vertices(ctx.rank, buf.size)
        return _split_by(buf, dest_rows, grid.C)

    splits = engine.map_ranks(split_rows)
    for h in handles:
        engine.comm.wait(h)
    delivered: list[np.ndarray] = [None] * grid.n_ranks  # type: ignore[list-item]
    for id_c, ranks in engine.col_groups():
        received = engine.comm.alltoallv(
            ranks, [splits[r] for r in ranks], nic_sharing=col_share
        )
        for pos, r in enumerate(ranks):
            delivered[r] = received[pos]
    return delivered
