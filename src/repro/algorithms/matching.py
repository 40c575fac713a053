"""Approximate maximum weight matching (paper §4).

Distributed locally-dominant 1/2-approximation (Preis): each round,
every unmatched vertex points along its heaviest available incident
edge; mutually-pointing pairs commit to the matching; repeat until no
pair commits.  Ties break to the larger neighbor id (original ids), the
same deterministic rule as the serial reference.

This is the paper's showcase for *complex reductions* in the sparse
pattern (§3.3.3): the per-vertex reduction is an argmax over
``(weight, neighbor)`` pairs — not an element-wise op — carried in
structured candidate buffers.  Each round:

1. per-rank local argmax over available local edges (a vertex's full
   adjacency spans its row group);
2. row-group AllGatherv + custom merge -> consistent pointers;
3. pointer/death flags refreshed on ghost copies along column groups;
4. local mutual-pair detection on owned edges (every pair is seen from
   both of its block-transposed sides), committed through a standard
   sparse push on the ``mate`` state.

Each phase runs every rank at once over the fleet's stacked state: the
considered rows are one rank-major queue of stacked LIDs, both edge
phases are one ``Fleet.expand`` pass, and the candidates travel in one
AllGatherv stage (:func:`~repro.patterns.complex.allgatherv_groups`).
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..kernels import unique_bounded
from ..patterns.complex import allgatherv_groups, refresh_ghosts
from ..patterns.sparse import sparse_push
from .bfs import check_count

__all__ = ["max_weight_matching"]

#: Candidate entry for the complex reduction: vertex, weight, neighbor.
CAND_DTYPE = np.dtype([("gid", np.int64), ("w", np.float64), ("nbr", np.int64)])

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _heaviest(rows: np.ndarray, w: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Each row's heaviest edge, ties to the larger neighbor: the
    position of the last edge of every row in ``np.lexsort((nbr, w,
    rows))`` order (NaN weighs most, then the last in edge order), for
    ``rows`` that arrive grouped — a queue's expansion — without the
    sort."""
    if rows.size == 0:
        return _EMPTY_I64
    head = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    size = np.diff(np.r_[head, rows.size])

    def per_row(reduced: np.ndarray) -> np.ndarray:
        return np.repeat(reduced, size)

    nan = np.isnan(w)
    top = np.where(
        per_row(np.logical_or.reduceat(nan, head)),
        nan,
        w == per_row(np.maximum.reduceat(w, head)),
    )
    heaviest_nbr = np.maximum.reduceat(np.where(top, nbr, np.iinfo(np.int64).min), head)
    top &= nbr == per_row(heaviest_nbr)
    pick = np.flatnonzero(top)
    row = np.searchsorted(head, pick, side="right")
    return pick[np.r_[row[1:] != row[:-1], True]]


def max_weight_matching(
    engine: Engine, max_rounds: int | None = None
) -> AlgorithmResult:
    """Run locally-dominant MWM to convergence.

    Requires a weighted graph.  Returns ``mate`` in original vertex
    order (``-1`` for unmatched), identical to the serial reference.
    ``max_rounds`` bounds the rounds: ``None`` (until no pair commits)
    or an integer >= 1 — ``0``, a negative, a float or a bool raises
    ``ValueError`` (:func:`~repro.algorithms.bfs.check_count`).
    """
    if max_rounds is not None:
        max_rounds = check_count(max_rounds, "max_rounds")
    if not engine.partition.weighted:
        raise ValueError("max weight matching needs an edge-weighted graph")
    engine.reset_timers()
    part, fleet = engine.partition, engine.fleet
    row_groups = list(engine.row_groups())

    engine.alloc("mate", np.float64, fill=-1.0)
    engine.alloc("dead", np.float64, fill=0.0)
    engine.alloc("ptr", np.float64, fill=-1.0)
    engine.charge_vertices(None, fleet.n_total)
    mate, dead, ptr = (fleet.stacked(n) for n in ("mate", "dead", "ptr"))

    rounds = 0
    total_matched = 0
    while True:
        rounds += 1

        # ---- 1: local heaviest-available-edge candidates -------------
        considered = np.flatnonzero(fleet.row_mask & (mate < 0) & (dead == 0))
        counts = fleet.counts(considered)
        degrees = fleet.row_degrees(considered)
        engine.charge_edges(None, degrees, work_per_edge=2.0, segments=counts)
        src, dst, w = [_EMPTY_I64], [_EMPTY_I64], [np.empty(0)]
        for _, ex in fleet.expand(considered, degrees):
            avail = (mate[ex.dst] < 0) & (dead[ex.dst] == 0)
            src.append(ex.src[avail])
            dst.append(ex.dst[avail])
            w.append(ex.weights[avail])
        src, dst, w = (np.concatenate(a) for a in (src, dst, w))
        nbr_orig = part.original_gid(dst + fleet.col_gid_shift[fleet.rank_of(dst)])
        best = _heaviest(src, w, nbr_orig)
        ranks = fleet.rank_of(src[best])
        candidates = np.empty(best.size, dtype=CAND_DTYPE)
        candidates["gid"] = src[best] + fleet.row_gid_shift[ranks]
        candidates["w"] = w[best]
        candidates["nbr"] = nbr_orig[best]

        # ---- 2: row-group consensus pointers (complex reduction) -----
        rbufs, sizes = allgatherv_groups(
            engine, row_groups, candidates, np.bincount(ranks, minlength=engine.n_ranks)
        )
        ptr[considered] = -1.0
        for (_, members), rbuf in zip(row_groups, rbufs):
            rb = rbuf[np.lexsort((rbuf["nbr"], rbuf["w"], rbuf["gid"]))]
            last = np.ones(rb.size, dtype=bool)
            last[:-1] = rb["gid"][1:] != rb["gid"][:-1]
            lids = (rb["gid"][last] - fleet.row_gid_shift[members, None]).ravel()
            ptr[lids] = np.tile(rb["nbr"][last], len(members))
        # Vertices with no available edge anywhere are dead.
        dead[considered[ptr[considered] < 0]] = 1.0
        engine.charge_vertices(None, sizes + counts)

        # ---- 3: refresh ghost pointers/death along column groups -----
        refresh_ghosts(engine, ("ptr", "dead"), considered)

        # ---- 4: mutual-pair detection + commit ------------------------
        engine.charge_edges(None, degrees, segments=counts)
        queue = [_EMPTY_I64]
        for owner, ex in fleet.expand(considered, degrees):
            src, dst, rank = ex.src, ex.dst, owner[ex.entry]
            src_orig = part.original_gid(src + fleet.row_gid_shift[rank])
            dst_orig = part.original_gid(dst + fleet.col_gid_shift[rank])
            mutual = (ptr[src] == dst_orig) & (ptr[dst] == src_orig)
            # Push-pattern contract: the compute kernel writes *column*
            # state only.  The row-side mate of each pair is written by
            # the rank holding the transposed edge (the graph is
            # symmetric, so every pair is detected from both sides) and
            # propagated by the exchange below.
            mate[dst[mutual]] = src_orig[mutual]
            queue.append(dst[mutual])
        result = sparse_push(
            engine, "mate", unique_bounded(np.concatenate(queue), fleet.size), op="max"
        )
        total_matched += result.n_updated
        engine.superstep_boundary("mwm")
        if result.n_updated == 0:
            break
        if max_rounds is not None and rounds >= max_rounds:
            break

    mate_vals = engine.gather("mate")
    values = mate_vals.astype(np.int64)
    matched = np.flatnonzero(values >= 0)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=rounds,
        counters=engine.counters.summary(),
        extra={"n_matched_vertices": int(matched.size)},
    )
