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


def packet_swap(
    engine: Engine, packets: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deliver every rank's packets to their ``dest`` ranks.

    ``packets`` holds every rank's packets rank-major — ``counts[r]``
    of rank ``r``, after those of ranks ``< r`` — as one structured
    array with (at least) a ``dest`` field of destination rank ids.
    Returns the delivered packets the same way: rank-major, with their
    number per rank.  Routing is row-then-column as described in the
    module docstring; each hop is one stable sort of every rank's
    packets by destination member and one AllToAllV stage over the
    hop's groups.
    """
    grid, fleet = engine.grid, engine.fleet
    counts = np.asarray(counts)
    if counts.shape != (grid.n_ranks,) or counts.sum() != len(packets):
        raise ValueError(
            f"need one packet count per rank ({grid.n_ranks}) summing to "
            f"{len(packets)}, got {counts.tolist()}"
        )
    bad = (packets["dest"] < 0) | (packets["dest"] >= grid.n_ranks)
    if bad.any():
        raise ValueError(f"rank {fleet.ranks(counts)[bad.argmax()]}: packet dest out of range")

    # Hop 1: along each row group, move packets to their destination
    # block-column.  On an overlapped engine it is issued split-phase:
    # the staged packets materialize at issue, the hop-2 sort computes
    # against them while the exchanges are in flight, and the comm
    # charge lands at the waits below (hiding the sort's compute).  See
    # docs/MODEL.md.
    row = _route(engine, packets, counts, packets["dest"] % grid.R, "row")
    if engine.overlap:
        (staged, staged_counts), handles = engine.comm.start_alltoallv_stage(*row)
    else:
        (staged, staged_counts), handles = engine.comm.alltoallv_stage(*row), []
    # Hop 2: along each column group, move packets to their destination
    # block-row.
    col = _route(engine, staged, staged_counts, staged["dest"] // grid.R, "col")
    for handle in handles:
        engine.comm.wait(handle)
    return engine.comm.alltoallv_stage(*col)


def _route(engine: Engine, packets, counts, member, axis: str) -> tuple:
    """Every rank's packets stably sorted by the ``member`` of its
    ``axis`` group they go to (a per-vertex kernel on each rank): the
    arguments of that hop's AllToAllV stage."""
    groups = [ranks for _, ranks in (engine.row_groups() if axis == "row" else engine.col_groups())]
    k = len(groups[0])
    runs = engine.fleet.ranks(counts) * k + member
    order = np.argsort(runs, kind="stable")
    sends = np.bincount(runs, minlength=engine.n_ranks * k).reshape(-1, k)
    engine.charge_vertices(None, counts)
    return groups, packets.take(order), sends, engine.stage_nic_sharing(axis)
