"""Lane-batched multi-source traversal: k queries, one superstep stream.

The paper's cost model is dominated at scale by per-collective α terms,
so k independent queries run sequentially pay k traversals' worth of
latency.  :func:`bfs_batch` and :func:`sssp_batch` instead run k query
*lanes* through one BSP superstep stream over ``(N_T, k)`` state
arrays: every sparse exchange ships one fused buffer of
``{lane·n + gid, val}`` pairs carrying all live frontiers
(:func:`~repro.patterns.sparse.sparse_push_lanes`), and every
bottom-up BFS sweep carries a k-column slice
(:func:`~repro.patterns.dense.dense_exchange_lanes`) — one α charge per
collective where k sequential runs pay k.  Per-lane convergence masks
retire finished queries mid-stream, shrinking the buffers as lanes
drain; for BFS each lane additionally keeps its *own* hybrid push/pull
switching state, so a lane deep in bottom-up territory can run a dense
slice exchange in the same superstep other lanes still push sparsely.

The correctness contract is strict bit-identity: lane ``l`` of a
batched run produces exactly the arrays of the corresponding
single-source run (same roots, same engine configuration).  Every
fused kernel is built so each lane's update subsequence is applied in
the order the 1-D code would use (see
:func:`~repro.kernels.scatter_reduce_lanes`), queues stay lane-major so
within-lane GID order matches the 1-D sorted queues, and per-lane
frontier edge counts reuse the exact 1-D operand sequences.

``k == 1`` degenerates to the single-source code path by construction:
each batch function delegates to its scalar counterpart and reshapes
the result, so a batch of one is the single-source run.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..kernels import scatter_reduce_lanes
from ..patterns.dense import dense_exchange_lanes
from ..patterns.sparse import sparse_push_lanes
from .bfs import ALPHA, BETA, bfs, check_count, validate_roots
from .sssp import require_sssp_weights, sssp

__all__ = ["bfs_batch", "sssp_batch"]

INF = np.inf

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _entry_queues(fleet, lids: np.ndarray, lanes: np.ndarray) -> list:
    """Per-rank ``(local LIDs, lanes)`` entry queues of rank-major
    stacked row cells."""
    cuts = np.cumsum(fleet.counts(lids))[:-1]
    return list(zip(fleet.split(lids), np.split(lanes, cuts)))


def bfs_batch(engine: Engine, roots, resume: bool = False) -> AlgorithmResult:
    """Hybrid BFS from ``k`` roots in one fused superstep stream.

    ``values`` is an ``(n, k)`` parent matrix (column ``l`` ==
    ``bfs(engine, roots[l]).values``, bit-identical); ``extra`` carries
    the matching ``(n, k)`` ``levels`` plus per-lane ``n_visited`` and
    ``directions`` logs.  Each lane switches push/pull independently
    with the same Beamer heuristic and retires as soon as its frontier
    empties; live lanes keep sharing one exchange per superstep.
    ``resume=True`` continues from the engine's latest attached
    checkpoint instead of starting over; the checkpoint tag names the
    roots, so one taken over other roots is refused.
    """
    part, grid, fleet = engine.partition, engine.grid, engine.fleet
    n = part.n_vertices
    roots = validate_roots(n, roots)
    k = roots.size
    if k == 1:
        res = bfs(engine, int(roots[0]), resume=resume)
        return AlgorithmResult(
            values=res.values.reshape(-1, 1),
            timings=res.timings,
            iterations=res.iterations,
            counters=res.counters,
            extra={
                "levels": res.extra["levels"].reshape(-1, 1),
                "n_visited": [res.extra["n_visited"]],
                "directions": [res.extra["directions"]],
                "roots": [int(roots[0])],
            },
        )
    roots_rel = part.perm[roots].astype(np.int64)

    # Every cell's original GID as float64 (built once): translating a
    # candidate parent in the edge loops is a single gather instead of
    # two GID-arithmetic passes plus a cast per superstep.  Derived and
    # uncharged, so recomputing on a resume is clock-neutral.
    gid_of = np.zeros(fleet.size)
    fleet.fill_windows(gid_of, part.original_gid(np.arange(n)).astype(np.float64))

    # Every rank in a row group holds the identical row-window state
    # after each exchange, so frontier lists are computed once by the
    # group's first rank and aliased to the rest.  The window sits at
    # each member's own ``row_offset`` in its LID space (Type 2 maps,
    # i.e. R < C grids, differ within a group), so a member whose
    # offset differs from the leader's gets the LIDs shifted.
    row_leader = np.zeros(grid.n_ranks, dtype=np.int64)
    for _, ranks in engine.row_groups():
        row_leader[ranks] = ranks[0]
    row_offset = fleet.row_start - fleet.row_gid_shift - fleet.base[:-1]
    row_shift = (row_offset - row_offset[row_leader]).tolist()
    row_leader = row_leader.tolist()
    leaders = sorted(set(row_leader))
    # every rank's row window as a stacked-LID range
    windows = (np.stack([fleet.row_start, fleet.row_stop]) - fleet.row_gid_shift).T.tolist()

    def aliased(led: dict) -> list:
        """Per rank, its row-group leader's ``(lids, lanes)`` list,
        shifted to the member's own row offset."""
        return [
            (lids + shift, lanes) if shift else (lids, lanes)
            for (lids, lanes), shift in zip((led[lead] for lead in row_leader), row_shift)
        ]

    def frontier_at(depth: int) -> list:
        """The frontier superstep ``depth`` left, entry for entry as the
        loop builds it: per row group, the row cells with ``level ==
        depth`` — the push lanes' lane-major, then the pull lanes'
        (``s.bottom_up``) cell-major.  A checkpoint does not hold it;
        a resume derives it here."""
        level = fleet.stacked("level")
        push, pull = np.flatnonzero(~s.bottom_up), np.flatnonzero(s.bottom_up)
        led = {}
        for r in leaders:
            lo, hi = windows[r]
            at = level[lo:hi] == depth
            lane, cell = np.nonzero(at[:, push].T)
            pcell, plane = np.nonzero(at[:, pull])
            led[r] = (
                np.concatenate([cell, pcell]) + (lo - int(fleet.base[r])),
                np.concatenate([push[lane], pull[plane]]),
            )
        return aliased(led)

    tag = f"bfs_batch(roots={roots.tolist()})"
    if resume:
        s = SimpleNamespace(**engine.resume_from_checkpoint(tag))
        frontier = frontier_at(s.depth)
    else:
        engine.reset_timers()
        m_total = float(fleet.global_degrees().sum())
        engine.alloc("parent", np.float64, fill=INF, width=k)
        engine.alloc("level", np.float64, fill=INF, width=k)

        # Seed every root in its lane, everywhere it is visible.
        (row_lids, row_lanes), (col_lids, col_lanes) = fleet.cells_of(roots_rel)
        seeds = np.concatenate([row_lids, col_lids])
        seed_lanes = np.concatenate([row_lanes, col_lanes])
        fleet.stacked("parent")[seeds, seed_lanes] = roots[seed_lanes]
        fleet.stacked("level")[seeds, seed_lanes] = 0.0
        # every vertex has a row cell, and its replicas agree on the
        # (integer-valued) global degree
        root_deg = np.zeros(k)
        root_deg[row_lanes] = fleet.cell_degrees()[row_lids]
        frontier = _entry_queues(fleet, row_lids, row_lanes)
        s = SimpleNamespace(
            n_visited=np.ones(k, dtype=np.int64),
            m_frontier=root_deg.copy(),
            m_frontier_prev=np.zeros(k),
            m_unvisited=m_total - root_deg,
            bottom_up=np.zeros(k, dtype=bool),
            lane_done=np.zeros(k, dtype=bool),
            depth=0,
            direction_log=[[] for _ in range(k)],
        )

    def saved():
        return vars(s)

    while not s.lane_done.all():
        s.depth += 1
        # per-lane frontier sizes over the row groups' first ranks
        fsize = sum(
            np.bincount(frontier[ranks[0]][1], minlength=k)
            for _, ranks in engine.row_groups()
        )
        for lane in np.flatnonzero(~s.lane_done):
            growing = s.m_frontier[lane] > s.m_frontier_prev[lane]
            if (
                not s.bottom_up[lane]
                and growing
                and s.m_frontier[lane] > s.m_unvisited[lane] / ALPHA
            ):
                s.bottom_up[lane] = True
            elif s.bottom_up[lane] and (
                s.n_visited[lane] >= n or fsize[lane] < n / BETA
            ):
                s.bottom_up[lane] = False
            s.direction_log[lane].append(
                "bottom-up" if s.bottom_up[lane] else "top-down"
            )
        push_set = ~s.lane_done & ~s.bottom_up
        pull_lanes = np.flatnonzero(~s.lane_done & s.bottom_up)
        n_upd = np.zeros(k, dtype=np.int64)

        result = None
        if push_set.any():
            # Top-down lanes: one fused expansion over every push
            # lane's frontier, one fused sparse exchange.
            def top_down(ctx):
                parent = ctx.get("parent")
                lids, lanes_f = frontier[ctx.rank]
                sel = push_set[lanes_f]
                rows, rlanes = lids[sel], lanes_f[sel]
                degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
                engine.charge_edges(ctx.rank, degs)
                ex = ctx.expand(rows, degs)
                if ex.dst.size == 0:
                    return _EMPTY_I64, _EMPTY_I64
                # Lanes and candidate parents are per queue entry:
                # gathered by entry, never rebuilt at edge size.
                unvisited = parent[ex.dst, rlanes[ex.entry]] == INF
                entry = ex.entry[unvisited]
                cand = gid_of[rows + fleet.base[ctx.rank]]
                return scatter_reduce_lanes(
                    parent, ex.dst[unvisited], cand[entry], "min", lanes=rlanes[entry]
                )

            queues = engine.map_ranks(top_down)
            result = sparse_push_lanes(engine, "parent", queues, op="min")
            n_upd += result.n_updated

        if pull_lanes.size:
            # Bottom-up lanes share one expansion: the lanes' unvisited
            # sets overlap heavily in this regime, so the union of
            # their rows is expanded once and every lane filters the
            # same edge stream through one 2-D gather — this row reuse
            # (impossible for k sequential runs) is where the batch
            # beats sequential wall-clock, not just collective counts.
            # MIN is order-independent, so sharing cannot perturb the
            # per-lane results.
            L = int(pull_lanes.size)
            n_chunks = (L + 7) // 8
            Lp = 8 * n_chunks

            def bottom_up_scan(ctx):
                parent = ctx.get("parent")
                level = ctx.get("level")
                lm = ctx.localmap
                rs = ctx.row_slice
                cs = ctx.col_slice
                pw = parent[rs]
                lw = level[cs]
                if L != k:
                    pw = pw[:, pull_lanes]
                    lw = lw[:, pull_lanes]
                # Expansion sources live in the row window and targets
                # in the column window, so the per-cell masks only need
                # those slices.  The L per-lane bool masks, padded to a
                # byte multiple, ARE a packed bitmask when reinterpreted
                # as uint64 words (little-endian byte per lane): no
                # arithmetic packs them, the edge stream takes two
                # scalar gathers and one AND per 8-lane word, and the
                # surviving words viewed back as bytes are directly the
                # (edge, lane) candidate matrix.
                rb = np.zeros((pw.shape[0], Lp), dtype=bool)
                cb = np.zeros((lw.shape[0], Lp), dtype=bool)
                np.equal(pw, INF, out=rb[:, :L])
                np.equal(lw, s.depth - 1, out=cb[:, :L])
                row64 = rb.view(np.uint64)
                col64 = cb.view(np.uint64)
                row_any = row64[:, 0]
                for c in range(1, n_chunks):
                    row_any = row_any | row64[:, c]
                rows_rel = np.flatnonzero(row_any != 0)
                rows = rows_rel + rs.start
                degs = ctx.local_degrees()[rows - lm.row_offset]
                engine.charge_edges(ctx.rank, degs)
                ex = ctx.expand(rows, degs)
                if ex.dst.size:
                    gtab = gid_of[fleet.base[ctx.rank] + cs.start :]
                    pflat = parent.reshape(-1)
                    row_words = row64[rows_rel]  # per queue entry
                    dst_rel = ex.dst - cs.start
                    for c in range(n_chunks):
                        eb = row_words[ex.entry, c] & col64[dst_rel, c]
                        ne = np.flatnonzero(eb != 0)
                        if not ne.size:
                            continue
                        # One composite-index MIN over every (edge,
                        # lane) candidate of this 8-lane word: the
                        # surviving words viewed back as bytes are the
                        # flattened (edge, lane) candidate matrix, and
                        # no change set is produced (this scatter's
                        # changed set is never consumed — fresh cells
                        # are recovered from the level stamp
                        # afterwards).  MIN over the same candidate
                        # set is order-independent, so the per-lane
                        # results stay bit-identical.
                        hits = np.flatnonzero(eb[ne].view(bool))
                        pe = hits >> 3
                        pl = hits & 7
                        s_c = rows[ex.entry[ne]]
                        g_c = gtab[dst_rel[ne]]
                        if L == k:
                            comp = s_c[pe] * k + 8 * c + pl
                        else:
                            comp = s_c[pe] * k + pull_lanes[8 * c + pl]
                        np.minimum.at(pflat, comp, g_c[pe])

            engine.foreach(bottom_up_scan)
            level = fleet.stacked("level")
            lanes = slice(None) if L == k else pull_lanes

            def fresh_counts(parent):
                # Every rank's per-lane fresh row-window cells (its row
                # group's, counted once on the leader), riding the
                # Broadcasts as one word per live lane.
                counted = {}
                for r in leaders:
                    lo, hi = windows[r]
                    fresh = (parent[lo:hi] != INF) & (level[lo:hi, lanes] == INF)
                    counted[r] = np.count_nonzero(fresh, axis=0)
                return np.array([counted[r] for r in row_leader])

            n_upd[pull_lanes] = dense_exchange_lanes(
                engine, "parent", "pull", "min", pull_lanes, count=fresh_counts
            )

        cont = ~s.lane_done & (n_upd > 0)
        s.lane_done |= ~s.lane_done & (n_upd == 0)
        if not cont.any():
            engine.superstep_boundary(tag, saved)
            break

        # Build the next frontier, then record the levels of freshly
        # visited cells.  A row group shares one row window, so its
        # leader builds the list and the members alias it: push lanes
        # keep the exchange's active rows (lane-major, unique), then the
        # pull lanes that go on take the leader's fresh row cells,
        # lid-major.  Each lane's entries come from exactly one part
        # (disjoint lane sets) with LIDs ascending within the lane,
        # which is all downstream consumers need: expansion order only
        # matters per lane, and per-lane deg sums extract their own
        # subsequence.
        pull_cont = cont & np.isin(np.arange(k), pull_lanes)
        parent, level = fleet.stacked("parent"), fleet.stacked("level")
        lanes_on, led = np.flatnonzero(pull_cont), {}
        for r in leaders:
            al, an = result.active_row[r] if result is not None else (_EMPTY_I64, _EMPTY_I64)
            lo, hi = windows[r]
            fresh = (parent[lo:hi, lanes_on] != INF) & (level[lo:hi, lanes_on] == INF)
            cell, lane = np.nonzero(fresh)
            keep = cont[an]
            led[r] = (
                np.concatenate([al[keep], cell + (lo - int(fleet.base[r]))]),
                np.concatenate([an[keep], lanes_on[lane]]),
            )
        frontier = aliased(led)
        # Stamp rank by rank, each temporary one rank's window.  A pure
        # push superstep stamps only the cells its exchange names
        # (changed ghosts, the local update queue and the active owned
        # rows): every cell with a finite parent and an unset level was
        # written *this* superstep — earlier supersteps stamped theirs —
        # so that reaches exactly the set the full scan would.
        bounds = fleet.base.tolist()
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if result is not None and not pull_cont.any():
                (cl, cn), (al, an) = result.active_col[r], result.active_row[r]
                tl, tn = np.concatenate([cl, al]) + lo, np.concatenate([cn, an])
                unset = level[tl, tn] == INF
                level[tl[unset], tn[unset]] = s.depth
            else:
                fresh = (parent[lo:hi] != INF) & (level[lo:hi] == INF)
                np.copyto(level[lo:hi], s.depth, where=fresh)
        engine.charge_vertices(None, fleet.n_total)
        # Per-lane frontier edge counts over the row groups' first
        # ranks: sums of integer-valued degrees far below 2**53, exact
        # in any order, so the switching trajectory is the 1-D one.
        m_new, deg = np.zeros(k), fleet.cell_degrees()
        for _, ranks in engine.row_groups():
            lids0, lanes0 = frontier[ranks[0]]
            m_new += np.bincount(lanes0, weights=deg[lids0 + fleet.base[ranks[0]]], minlength=k)
        s.m_frontier_prev[cont] = s.m_frontier[cont]
        s.m_frontier[cont] = m_new[cont]
        s.n_visited[cont] += n_upd[cont]
        s.m_unvisited[cont] -= s.m_frontier[cont]
        s.lane_done |= cont & (s.n_visited >= n)
        engine.superstep_boundary(tag, saved)

    parent_state = engine.gather("parent")
    levels = engine.gather("level")
    reached = np.isfinite(parent_state)
    parents = np.full((n, k), -1, dtype=np.int64)
    parents[reached] = parent_state[reached].astype(np.int64)
    out_levels = np.where(np.isfinite(levels), levels, -1).astype(np.int64)
    return AlgorithmResult(
        values=parents,
        timings=engine.timing_report(),
        iterations=s.depth,
        counters=engine.counters.summary(),
        extra={
            "levels": out_levels,
            "n_visited": [int(v) for v in s.n_visited],
            "directions": [list(d) for d in s.direction_log],
            "roots": [int(r) for r in roots],
        },
    )


def sssp_batch(
    engine: Engine,
    sources,
    max_iterations: Optional[int] = None,
    resume: bool = False,
) -> AlgorithmResult:
    """Bellman-Ford from ``k`` sources in one fused superstep stream.

    ``values`` is an ``(n, k)`` distance matrix; column ``l`` is
    bit-identical to ``sssp(engine, sources[l]).values``.  Lanes retire
    individually once their relaxation fixpoints are reached, or after
    ``max_iterations`` supersteps (an integer >= 1, else ``ValueError``;
    ``None``: no bound).  ``resume=True`` continues from the engine's
    latest attached checkpoint of a run over the same sources.
    """
    part, grid, fleet = engine.partition, engine.grid, engine.fleet
    require_sssp_weights(engine, "sssp_batch")
    if max_iterations is not None:
        max_iterations = check_count(max_iterations, "max_iterations")
    n = part.n_vertices
    sources = validate_roots(n, sources, "sources")
    k = sources.size
    if k == 1:
        res = sssp(
            engine,
            int(sources[0]),
            max_iterations=max_iterations,
            resume=resume,
        )
        return AlgorithmResult(
            values=res.values.reshape(-1, 1),
            timings=res.timings,
            iterations=res.iterations,
            counters=res.counters,
            extra={
                "n_reached": [res.extra["n_reached"]],
                "iterations": [res.iterations],
                "sources": [int(sources[0])],
            },
        )
    roots_rel = part.perm[sources].astype(np.int64)

    tag = f"sssp_batch(sources={sources.tolist()})"
    if resume:
        s = SimpleNamespace(**engine.resume_from_checkpoint(tag))
        s.frontier = fleet.decode_queue(s.frontier)
    else:
        engine.reset_timers()

        engine.alloc("dist", np.float64, fill=INF, width=k)
        (row_lids, row_lanes), (col_lids, col_lanes) = fleet.cells_of(roots_rel)
        dist = fleet.stacked("dist")
        dist[row_lids, row_lanes] = 0.0
        dist[col_lids, col_lanes] = 0.0
        engine.charge_vertices(None, fleet.n_total)
        s = SimpleNamespace(
            frontier=_entry_queues(fleet, row_lids, row_lanes),
            lane_done=np.zeros(k, dtype=bool),
            lane_iters=np.zeros(k, dtype=np.int64),
            iterations=0,
        )

    def saved():
        return {**vars(s), "frontier": fleet.encode_queue(s.frontier)}

    while not s.lane_done.all():
        s.iterations += 1
        active = ~s.lane_done

        def relax(ctx):
            dist = ctx.get("dist")
            lids, lanes_f = s.frontier[ctx.rank]
            sel = active[lanes_f]
            rows, rlanes = lids[sel], lanes_f[sel]
            degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
            engine.charge_edges(ctx.rank, degs, work_per_edge=1.5)
            ex = ctx.expand(rows, degs)
            if ex.dst.size == 0:
                return _EMPTY_I64, _EMPTY_I64
            # The queue's own distances, gathered per edge by entry.
            cand = dist[rows, rlanes][ex.entry]
            cand += ex.weights
            return scatter_reduce_lanes(
                dist, ex.dst, cand, "min", lanes=rlanes[ex.entry]
            )

        queues = engine.map_ranks(relax)
        result = sparse_push_lanes(engine, "dist", queues, op="min")
        s.frontier = result.active_row
        s.lane_iters[active] = s.iterations
        s.lane_done |= active & (result.n_updated == 0)
        if max_iterations is not None and s.iterations >= max_iterations:
            s.lane_done |= active
        engine.superstep_boundary(tag, saved)

    values = engine.gather("dist")
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=s.iterations,
        counters=engine.counters.summary(),
        extra={
            "n_reached": [
                int(np.count_nonzero(np.isfinite(values[:, lane])))
                for lane in range(k)
            ],
            "iterations": [int(i) for i in s.lane_iters],
            "sources": [int(s) for s in sources],
        },
    )

