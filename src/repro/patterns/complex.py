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

Every phase runs on the :class:`~repro.core.fleet.Fleet` as one
device: queues are rank-major stacked row LIDs, histograms rank-major
triples with per-rank counts, each AllGatherv one stage call over
rank-major send data (:func:`allgatherv_groups`, which matching and
pointer jumping use too), and per-rank charges one vector each — state,
clocks and counters equal the per-rank formulation bit for bit (the
golden clocks).  What each owner receives at every stage is checked by
``tests/patterns/test_complex.py::test_complex_reduce_hands_each_owner_its_chunk``,
and ``tests/test_mutants.py`` names the contracts that catch each
routing, ordering and charging mistake.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..core.engine import Engine
from ..kernels import segment_reduce
from .sparse import _pairs, _tiles

__all__ = [
    "HASH_WORK_PER_EDGE",
    "TRIPLE_DTYPE",
    "allgatherv_groups",
    "complex_reduce",
    "neighbor_histograms",
    "rank_histograms",
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

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def rank_histograms(
    fleet, rows: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every rank's histogram of ``labels[i]`` observed at the stacked
    row LID ``rows[i]`` (any order): rank-major :data:`TRIPLE_DTYPE`
    triples over GIDs — each rank's sorted by ``(gid, label)``, as
    :func:`build_histogram` sorts them — and the triples per rank.

    One :func:`build_histogram` keyed by stacked LID: a rank's LIDs
    follow each other in GID order, and ranks in rank order.
    """
    tri = build_histogram(rows, labels)
    ranks = fleet.rank_of(tri["gid"])
    tri["gid"] += fleet.row_gid_shift[ranks]
    return tri, np.bincount(ranks, minlength=fleet.n_ranks)


def neighbor_histograms(
    engine: Engine, name: str, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every rank's histogram of the ``name`` values held by the local
    neighbors of ``rows`` (a rank-major queue of stacked row LIDs;
    phase 1 of the 2.5D scheme, charged as hash-table inserts): one
    expansion of the whole queue, as :func:`rank_histograms`."""
    fleet = engine.fleet
    state = fleet.stacked(name)
    degrees = fleet.row_degrees(rows)
    engine.charge_edges(
        None, degrees, work_per_edge=HASH_WORK_PER_EDGE, segments=fleet.counts(rows)
    )
    src, labels = [_EMPTY_I64], [_EMPTY_F64]
    for _, ex in fleet.expand(rows, degrees):
        src.append(ex.src)
        labels.append(state[ex.dst])
    return rank_histograms(fleet, np.concatenate(src), np.concatenate(labels))


def allgatherv_groups(
    engine: Engine, groups, send: np.ndarray, counts: np.ndarray
) -> tuple[list, np.ndarray]:
    """AllGatherv inside every group of ``groups`` (``(id, ranks)``
    pairs) of the rank-major ``send`` data (``counts[r]`` rows of rank
    ``r``), as one blocking stage call; the received buffers (one per
    group) and each rank's received length."""
    members = [ranks for _, ranks in groups]
    rbufs = engine.comm.allgatherv_stage(members, send, counts)
    sizes = np.empty(engine.n_ranks, dtype=np.int64)
    for ranks, rbuf in zip(members, rbufs):
        sizes[ranks] = rbuf.size
    return rbufs, sizes


def refresh_ghosts(engine: Engine, names: Sequence[str], rows: np.ndarray) -> None:
    """Refresh the column-window (ghost) copies of ``rows`` (a
    rank-major queue of stacked row LIDs).

    After a row-group reduction every rank of a row group agrees on its
    row window; the ghosts of those vertices live in the column groups.
    Each rank ships the listed row vertices that fall in its own column
    range — ``{gid, names...}`` entries, one AllGatherv per column
    group — and every rank assigns what it receives (``sparse_pull``'s
    second stage, for several states).
    """
    fleet = engine.fleet
    col_groups = list(engine.col_groups())
    ranks = fleet.rank_of(rows)
    gids = rows + fleet.row_gid_shift[ranks]
    mine = (gids >= fleet.col_start[ranks]) & (gids < fleet.col_stop[ranks])
    counts = np.bincount(ranks[mine], minlength=fleet.n_ranks)
    engine.charge_vertices(None, counts)
    dtype = np.dtype([("gid", np.int64)] + [(n, np.float64) for n in names])
    send = np.empty(int(counts.sum()), dtype=dtype)
    send["gid"] = gids[mine]
    for n in names:
        send[n] = fleet.stacked(n)[rows[mine]]

    rbufs, sizes = allgatherv_groups(engine, col_groups, send, counts)
    for (_, members), rbuf in zip(col_groups, rbufs):
        lids = (rbuf["gid"] - fleet.col_gid_shift[members, None]).ravel()
        for n in names:
            fleet.stacked(n)[lids] = np.tile(rbuf[n], len(members))
    engine.charge_vertices(None, sizes)


def complex_reduce(
    engine: Engine,
    name: str,
    histograms: tuple[np.ndarray, np.ndarray],
    owner_reduce: OwnerReduce,
    combine: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, int]:
    """One 2.5D complex reduction of every rank's histogram into the
    state ``name`` (paper §3.3.3; phases 2 and 3 of the module docs).

    ``histograms`` is ``(triples, counts)``: every rank's
    :data:`TRIPLE_DTYPE` entries over its local edges, rank-major,
    ``counts[r]`` of them rank ``r``'s (:func:`neighbor_histograms`,
    :func:`rank_histograms`).  ``owner_reduce`` turns merged histograms
    into ``(gids, values)`` winners, one per GID in GID order;
    ``combine(old, winner)`` gives the value to store (default: the
    winner).  Returns every rank's changed row LIDs (exact compare; the
    same vertices on every rank of a row group) as one rank-major queue
    of stacked LIDs, each rank's in received order, and the global
    number of changed vertices.  Ghost copies of the changed vertices
    are refreshed before returning.
    """
    fleet, part, grid = engine.fleet, engine.partition, engine.grid
    R, row_groups = grid.R, list(engine.row_groups())
    triples, counts = histograms

    # Owner k of a row group's k-th chunk of rows is the group's k-th
    # member, and row groups are consecutive ranks: over every group's
    # chunk bounds laid end to end, a GID's chunk index is its owner.
    chunks = [owner_chunks(*part.row_range(g), R)[:-1] for g, _ in row_groups]
    bounds = np.append(np.concatenate(chunks), part.n_vertices)

    def per_owner(gids: np.ndarray) -> np.ndarray:
        return np.bincount(owner_of_vertex(gids, bounds), minlength=grid.n_ranks)

    # Personalized exchange of the triples to their owners: each rank's
    # triples, stably grouped by owner (run r*R + k holds what rank r
    # sends its group's k-th member), one alltoallv stage over the row
    # groups.
    runs = fleet.ranks(counts) * R + owner_of_vertex(triples["gid"], bounds) % R
    order = np.argsort(runs, kind="stable")
    sends = np.bincount(runs, minlength=grid.n_ranks * R).reshape(-1, R)
    engine.charge_vertices(None, counts)
    received, _ = engine.comm.alltoallv_stage(
        [ranks for _, ranks in row_groups], triples.take(order), sends
    )

    # Owners hold disjoint GIDs, ascending with their rank: one merge
    # and one owner reduction serve every owner.
    merged = merge_histograms(received)
    gids, winners = owner_reduce(merged)
    engine.charge_vertices(None, per_owner(merged["gid"]))

    # Broadcast winners back across each row group and apply them.
    rbufs, sizes = allgatherv_groups(
        engine, row_groups, _pairs(gids, winners), per_owner(gids)
    )
    state = fleet.stacked(name)
    changed = [_EMPTY_I64]
    for lids, vals in _tiles(row_groups, rbufs, fleet.row_gid_shift):
        old = state[lids]
        state[lids] = vals if combine is None else combine(old, vals)
        changed.append(lids[state[lids] != old])
    engine.charge_vertices(None, sizes)

    rows = np.concatenate(changed)
    refresh_ghosts(engine, (name,), rows)
    per_rank = np.bincount(fleet.rank_of(rows), minlength=grid.n_ranks)
    return rows, int(per_rank[[ranks[0] for _, ranks in row_groups]].sum())


def _pair_order(keys: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``np.lexsort((labels, keys))``, the stable ascending order of the
    ``(key, label)`` pairs.  Integral labels that fit (vertex ids,
    colors, core estimates) make it one stable argsort of an ``int64``
    composite — the same permutation, several times faster, and
    faster still on keys that arrive sorted."""
    if keys.size:
        lo, hi = labels.min(), labels.max()
        integral = np.array_equal(labels, np.floor(labels))
        if np.isfinite(lo) and np.isfinite(hi) and integral:
            first, span = int(keys.min()), int(hi - lo) + 1
            if (int(keys.max()) - first + 1) * span < 1 << 62:
                composite = (keys - first) * span + (labels - lo).astype(np.int64)
                return np.argsort(composite, kind="stable")
    return np.lexsort((labels, keys))


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
    order = _pair_order(src_gids, labels)
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
    t = triples.take(_pair_order(triples["gid"], triples["label"]))
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
    order = _pair_order(merged["gid"], -merged["label"])
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
