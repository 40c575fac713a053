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
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..patterns.complex import allgatherv_by_rank, refresh_ghosts
from ..patterns.sparse import sparse_push

__all__ = ["max_weight_matching"]

#: Candidate entry for the complex reduction: vertex, weight, neighbor.
CAND_DTYPE = np.dtype([("gid", np.int64), ("w", np.float64), ("nbr", np.int64)])


def max_weight_matching(
    engine: Engine, max_rounds: int | None = None
) -> AlgorithmResult:
    """Run locally-dominant MWM to convergence.

    Requires a weighted graph.  Returns ``mate`` in original vertex
    order (``-1`` for unmatched), identical to the serial reference.
    """
    if not engine.partition.weighted:
        raise ValueError("max weight matching needs an edge-weighted graph")
    engine.reset_timers()
    part, grid = engine.partition, engine.grid

    engine.alloc("mate", np.float64, fill=-1.0)
    engine.alloc("dead", np.float64, fill=0.0)
    engine.alloc("ptr", np.float64, fill=-1.0)
    engine.charge_vertices(None, engine.fleet.n_total)

    rounds = 0
    total_matched = 0
    while True:
        rounds += 1

        # ---- 1: local heaviest-available-edge candidates -------------
        def local_candidates(ctx):
            mate, dead = ctx.get("mate"), ctx.get("dead")
            lm = ctx.localmap
            rows = ctx.row_lids()
            rows = rows[(mate[rows] < 0) & (dead[rows] == 0)]
            degs = ctx.local_degrees()[rows - lm.row_offset]
            engine.charge_edges(ctx.rank, degs, work_per_edge=2.0)
            ex = ctx.expand(rows, degs)
            src, dst, w = ex.src, ex.dst, ex.weights
            if src.size:
                avail = (mate[dst] < 0) & (dead[dst] == 0)
                src, dst, w = src[avail], dst[avail], w[avail]
            if src.size == 0:
                return rows, np.empty(0, dtype=CAND_DTYPE)
            nbr_orig = part.original_gid(lm.col_gid(dst))
            order = np.lexsort((nbr_orig, w, src))
            s, wo, no = src[order], w[order], nbr_orig[order]
            last = np.ones(s.size, dtype=bool)
            last[:-1] = s[1:] != s[:-1]
            buf = np.empty(int(last.sum()), dtype=CAND_DTYPE)
            buf["gid"] = lm.row_gid(s[last])
            buf["w"] = wo[last]
            buf["nbr"] = no[last]
            return rows, buf

        step1 = engine.map_ranks(local_candidates)
        considered = [rows for rows, _ in step1]
        candidates = [cand for _, cand in step1]

        # ---- 2: row-group consensus pointers (complex reduction) -----
        winners_of: list[np.ndarray | None] = [None] * grid.n_ranks
        rbuf_size_of: list[int] = [0] * grid.n_ranks
        rbuf_of = allgatherv_by_rank(engine, engine.row_groups(), candidates)
        for id_r, ranks in engine.row_groups():
            rbuf = rbuf_of[ranks[0]]
            if rbuf.size:
                order = np.lexsort((rbuf["nbr"], rbuf["w"], rbuf["gid"]))
                rb = rbuf[order]
                last = np.ones(rb.size, dtype=bool)
                last[:-1] = rb["gid"][1:] != rb["gid"][:-1]
                winners = rb[last]
            else:
                winners = rbuf
            for r in ranks:
                winners_of[r] = winners
                rbuf_size_of[r] = rbuf.size

        def apply_pointers(ctx):
            lm = ctx.localmap
            ptr, dead = ctx.get("ptr"), ctx.get("dead")
            rows = considered[ctx.rank]
            winners = winners_of[ctx.rank]
            ptr[rows] = -1.0
            if winners.size:
                ptr[lm.row_lid(winners["gid"])] = winners["nbr"]
            # Vertices with no available edge anywhere are dead.
            newly_dead = rows[ptr[rows] < 0]
            dead[newly_dead] = 1.0
            engine.charge_vertices(ctx.rank, rbuf_size_of[ctx.rank] + rows.size)

        engine.foreach(apply_pointers)

        # ---- 3: refresh ghost pointers/death along column groups -----
        refresh_ghosts(engine, ("ptr", "dead"), considered)

        # ---- 4: mutual-pair detection + commit ------------------------
        def mutual_pairs(ctx):
            mate, ptr = ctx.get("mate"), ctx.get("ptr")
            lm = ctx.localmap
            rows = considered[ctx.rank]
            degs = ctx.local_degrees()[rows - lm.row_offset]
            engine.charge_edges(ctx.rank, degs)
            ex = ctx.expand(rows, degs)
            src, dst = ex.src, ex.dst
            if src.size == 0:
                return np.empty(0, dtype=np.int64)
            src_orig = part.original_gid(lm.row_gid(src))
            dst_orig = part.original_gid(lm.col_gid(dst))
            mutual = (ptr[src] == dst_orig) & (ptr[dst] == src_orig)
            d = dst[mutual]
            so = src_orig[mutual]
            # Push-pattern contract: the compute kernel writes *column*
            # state only.  The row-side mate of each pair is written by
            # the rank holding the transposed edge (the graph is
            # symmetric, so every pair is detected from both sides) and
            # propagated by the exchange below.
            mate[d] = so
            return np.unique(d)

        queues = engine.map_ranks(mutual_pairs)
        result = sparse_push(engine, "mate", engine.fleet.stack(queues)[0], op="max")
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
