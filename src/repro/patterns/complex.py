"""Complex reductions and 2.5D hierarchical processing (paper §3.3.3).

Some reductions cannot be expressed as an element-wise AllReduce op.
Label Propagation needs the statistical *mode* of a vertex's
neighborhood labels — merging per-rank label histograms, not values.
The paper's "2.5D" scheme for this:

1. each rank of a row group reduces its locally-owned edges into
   per-vertex label histograms (GPU hash tables in the paper; sorted
   ``(vertex, label) -> count`` triples here);
2. the row group's vertices are block-partitioned into ``R`` chunks,
   hierarchically assigning each chunk an *owner* rank within the
   group; histograms are exchanged to owners (a personalized exchange
   whose volume is one histogram total, instead of the ``R``-fold
   volume an AllGather would move);
3. owners perform the final merge + mode selection, and the winners are
   broadcast back across the row group (then to column groups in the
   standard fashion).

:func:`complex_reduce` is that choreography, once: owner routing, the
row-group ``alltoallv``, the owner-side reduction, the row-group
``allgatherv`` of the winners, their application with exact
changed-row detection, and the column-group ghost refresh
(:func:`refresh_ghosts`).  Three algorithms instantiate it and keep
only what differs — the histogram each rank builds, the owner-side
reduction, and how a winner combines with the stored value: Label
Propagation (:func:`select_mode`, assign), k-core decomposition
(:func:`h_index_from_histograms`, ``min``), and Jones-Plassmann
coloring (smallest absent color, assign).  See ``docs/PATTERNS.md``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..comm.collectives import rank_major
from ..core.engine import Engine
from ..kernels import segment_reduce
from .sparse import PAIR_DTYPE

__all__ = [
    "HASH_WORK_PER_EDGE",
    "allgatherv_by_rank",
    "TRIPLE_DTYPE",
    "complex_reduce",
    "neighbor_histograms",
    "refresh_ghosts",
    "h_index_from_histograms",
    "build_histogram",
    "merge_histograms",
    "select_mode",
    "owner_of_vertex",
    "owner_chunks",
]

#: One histogram entry: vertex GID, label value, occurrence count.
TRIPLE_DTYPE = np.dtype(
    [("gid", np.int64), ("label", np.float64), ("count", np.int64)]
)


#: Relative cost of a hash-table insert vs. a simple edge op.
HASH_WORK_PER_EDGE = 4.0

#: Owner-side reduction: merged triples -> ``(gids, winning values)``.
OwnerReduce = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def neighbor_histograms(
    engine: Engine, name: str, rows: np.ndarray
) -> list[np.ndarray]:
    """Per-rank histograms of the ``name`` values held by the local
    neighbors of ``rows`` (a rank-major queue of stacked row LIDs;
    phase 1 of the 2.5D scheme, charged as hash-table inserts)."""
    rows_per_rank = engine.fleet.split(rows)

    def local_histogram(ctx):
        rows = rows_per_rank[ctx.rank]
        degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
        engine.charge_edges(ctx.rank, degs, work_per_edge=HASH_WORK_PER_EDGE)
        ex = ctx.expand(rows, degs)
        return build_histogram(ctx.localmap.row_gid(ex.src), ctx.get(name)[ex.dst])

    return engine.map_ranks(local_histogram)


def allgatherv_by_rank(engine: Engine, groups, sbufs) -> list[np.ndarray]:
    """AllGatherv ``sbufs`` (by rank) inside every group of ``groups``
    (``(id, ranks)`` pairs) as one stage call; each rank's received
    buffer, by rank."""
    members = [ranks for _, ranks in groups]
    rbufs = engine.comm.allgatherv_stage(members, *rank_major(sbufs))
    rbuf_of: list[Optional[np.ndarray]] = [None] * engine.grid.n_ranks
    for ranks, rbuf in zip(members, rbufs):
        for r in ranks:
            rbuf_of[r] = rbuf
    return rbuf_of


def refresh_ghosts(
    engine: Engine, names: Sequence[str], rows_per_rank: Sequence[np.ndarray]
) -> None:
    """Refresh the column-window (ghost) copies of ``rows_per_rank``.

    After a row-group reduction every rank of a row group agrees on its
    row window; the ghosts of those vertices live in the column groups.
    Each rank ships the listed row vertices that fall in its own column
    range — ``{gid, names...}`` entries, one AllGatherv per column
    group — and every rank assigns what it receives.
    """
    dtype = np.dtype([("gid", np.int64)] + [(n, np.float64) for n in names])

    def build_refresh(ctx):
        lm = ctx.localmap
        rows = rows_per_rank[ctx.rank]
        mine = rows[lm.owns_col_gid(lm.row_gid(rows))]
        buf = np.empty(mine.size, dtype=dtype)
        buf["gid"] = lm.row_gid(mine)
        for n in names:
            buf[n] = ctx.get(n)[mine]
        engine.charge_vertices(ctx.rank, mine.size)
        return buf

    rbuf_of = allgatherv_by_rank(
        engine, engine.col_groups(), engine.map_ranks(build_refresh)
    )

    def apply_refresh(ctx):
        rbuf = rbuf_of[ctx.rank]
        lids = ctx.localmap.col_lid(rbuf["gid"])
        for n in names:
            ctx.get(n)[lids] = rbuf[n]
        engine.charge_vertices(ctx.rank, rbuf.size)

    engine.foreach(apply_refresh)


def complex_reduce(
    engine: Engine,
    name: str,
    histograms: Sequence[np.ndarray],
    owner_reduce: OwnerReduce,
    combine: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, int]:
    """One 2.5D complex reduction of per-rank ``histograms`` into the
    state ``name`` (paper §3.3.3; phases 2 and 3 of the module docs).

    ``histograms[rank]`` holds the :data:`TRIPLE_DTYPE` entries rank
    built over its local edges; ``owner_reduce`` turns an owner's
    merged histograms into ``(gids, values)`` winners; ``combine(old,
    winner)`` gives the value to store (default: the winner).  Returns
    every rank's changed row LIDs (exact compare; the same vertices on
    every rank of a row group) as one rank-major queue of stacked LIDs,
    each rank's in received order, and the global number of changed
    vertices.
    Ghost copies of the changed vertices are refreshed before
    returning.
    """
    part, grid = engine.partition, engine.grid

    # Personalized exchange of histogram triples to owners: routing is
    # per-rank compute (each rank's owner chunks follow from its own
    # row group), the exchanges stay sequential per group.
    def route_to_owners(ctx):
        rs, re = part.row_range(ctx.block.id_r)
        bounds = owner_chunks(rs, re, grid.R)
        tri = histograms[ctx.rank]
        owners = owner_of_vertex(tri["gid"], bounds)
        order = np.argsort(owners, kind="stable")
        tri, owners = tri[order], owners[order]
        cuts = np.searchsorted(owners, np.arange(grid.R + 1))
        engine.charge_vertices(ctx.rank, tri.size)
        return [tri[cuts[k] : cuts[k + 1]] for k in range(grid.R)]

    sends = engine.map_ranks(route_to_owners)
    received_of: list[Optional[np.ndarray]] = [None] * grid.n_ranks
    for _, ranks in engine.row_groups():
        received = engine.comm.alltoallv(ranks, [sends[r] for r in ranks])
        for pos, r in enumerate(ranks):
            received_of[r] = received[pos]

    def reduce_owned(ctx):
        merged = merge_histograms(received_of[ctx.rank])
        gids, winners = owner_reduce(merged)
        engine.charge_vertices(ctx.rank, merged.size)
        buf = np.empty(gids.size, dtype=PAIR_DTYPE)
        buf["gid"] = gids
        buf["val"] = winners
        return buf

    # Broadcast winners back across each row group.
    rbuf_of = allgatherv_by_rank(
        engine, engine.row_groups(), engine.map_ranks(reduce_owned)
    )

    def apply_winners(ctx):
        state = ctx.get(name)
        rbuf = rbuf_of[ctx.rank]
        lids = ctx.localmap.row_lid(rbuf["gid"])
        old = state[lids]
        state[lids] = rbuf["val"] if combine is None else combine(old, rbuf["val"])
        engine.charge_vertices(ctx.rank, rbuf.size)
        return np.asarray(lids[state[lids] != old], dtype=np.int64)

    changed_rows = engine.map_ranks(apply_winners)
    refresh_ghosts(engine, (name,), changed_rows)
    rows, counts = engine.fleet.stack(changed_rows)
    return rows, int(counts[[ranks[0] for _, ranks in engine.row_groups()]].sum())


def build_histogram(src_gids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-(vertex, label) counts from raw edge observations.

    The vectorized stand-in for the paper's space-efficient GPU hash
    table insert phase: ``(gid, label)`` keys are sorted and run-length
    encoded into triples.
    """
    src_gids = np.asarray(src_gids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.float64)
    if src_gids.size == 0:
        return np.empty(0, dtype=TRIPLE_DTYPE)
    order = np.lexsort((labels, src_gids))
    g, lab = src_gids[order], labels[order]
    new_key = np.empty(g.size, dtype=bool)
    new_key[0] = True
    new_key[1:] = (g[1:] != g[:-1]) | (lab[1:] != lab[:-1])
    group = np.cumsum(new_key) - 1
    counts = np.bincount(group)
    out = np.empty(counts.size, dtype=TRIPLE_DTYPE)
    out["gid"] = g[new_key]
    out["label"] = lab[new_key]
    out["count"] = counts
    return out


def merge_histograms(triples: np.ndarray) -> np.ndarray:
    """Sum counts of equal ``(gid, label)`` keys (owner-side merge)."""
    if triples.size == 0:
        return triples
    order = np.lexsort((triples["label"], triples["gid"]))
    t = triples[order]
    new_key = np.empty(t.size, dtype=bool)
    new_key[0] = True
    new_key[1:] = (t["gid"][1:] != t["gid"][:-1]) | (
        t["label"][1:] != t["label"][:-1]
    )
    out = t[new_key].copy()
    out["count"] = segment_reduce(t["count"], np.flatnonzero(new_key), "sum")
    return out


def select_mode(merged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pick each vertex's modal label from merged histograms.

    Ties break to the smallest label — the deterministic rule shared
    with the serial reference.  Returns ``(gids, labels)``.
    """
    if merged.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64)
    sel = np.lexsort((merged["label"], -merged["count"], merged["gid"]))
    g_sorted = merged["gid"][sel]
    first = np.ones(sel.size, dtype=bool)
    first[1:] = g_sorted[1:] != g_sorted[:-1]
    winners = sel[first]
    return merged["gid"][winners], merged["label"][winners]


def owner_chunks(row_start: int, row_stop: int, group_size: int) -> np.ndarray:
    """Chunk boundaries block-partitioning a row range over its group.

    Owner ``k`` (the rank with ``Rank_R == k``) is responsible for
    vertices ``[bounds[k], bounds[k+1])``.
    """
    n = row_stop - row_start
    base, extra = divmod(n, group_size)
    sizes = np.full(group_size, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(group_size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds + row_start


def owner_of_vertex(gids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Owner index (``Rank_R``) of each GID under ``bounds``."""
    gids = np.asarray(gids, dtype=np.int64)
    return np.searchsorted(bounds, gids, side="right") - 1


def h_index_from_histograms(merged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex h-index from merged neighbor-value histograms.

    For each ``gid``, the h-index of its ``(value, count)`` entries is
    the largest ``h`` such that at least ``h`` neighbors carry value
    ``>= h``.  Used by the distributed k-core algorithm (Montresor et
    al.'s locality theorem: repeated neighborhood h-indices converge to
    core numbers), which makes it a second showcase of the paper's
    "complex reduction" pattern next to Label Propagation's mode.

    Returns ``(gids, h_values)``; vectorized over all vertices.
    """
    if merged.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # Sort by (gid asc, value desc) so each group's cumulative count at
    # an entry is "number of neighbors with value >= this value".
    order = np.lexsort((-merged["label"], merged["gid"]))
    g = merged["gid"][order]
    val = merged["label"][order].astype(np.int64)
    cnt = merged["count"][order]
    new_group = np.empty(g.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = g[1:] != g[:-1]
    group = np.cumsum(new_group) - 1
    cum = np.cumsum(cnt)
    # subtract each group's starting offset
    starts = np.zeros(group[-1] + 1, dtype=np.int64)
    start_pos = np.flatnonzero(new_group)
    starts[1:] = cum[start_pos[1:] - 1]
    cum_in_group = cum - starts[group]
    # candidate h at each entry: min(value, cumulative count); the
    # h-index is the max candidate within the group.
    cand = np.minimum(val, cum_in_group)
    # floor at 0, as the zero-initialized accumulator did
    h = np.maximum(segment_reduce(cand, start_pos, "max"), 0)
    return g[new_group], h
