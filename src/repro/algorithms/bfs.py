"""Direction-optimizing breadth-first search (paper §4).

A standard hybrid BFS in the style of Beamer et al. with the paper's
static parameters: top-down (push) expansion while the frontier is
small, switching to bottom-up (pull) when the frontier's edge count
exceeds ``m_unvisited / alpha`` (and the frontier is growing), and
back to top-down when it shrinks below ``N / beta``.  Communication
follows the paper's dense/sparse philosophy: top-down iterations are
sparse queue exchanges; bottom-up iterations (which only run when the
frontier covers much of the graph) exchange parent slices densely, the
Graph500-style whole-frontier reduction.  Parent assignments reduce
with MIN over candidate parent GIDs so every rank resolves ties
identically; candidates are *original* ids, so the tie-break — and
therefore the full trajectory — is independent of the partition's
relabeling (a run migrated onto a different grid mid-flight replays
bit-identically; see ``docs/ROBUSTNESS.md``).

State: ``parent`` holds the parent's original GID (``inf`` =
unvisited); ``level`` is maintained locally from the iteration at which
a vertex's parent first appeared (no extra exchange needed, since
parent updates are made consistent each iteration).
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult, TimingReport
from ..kernels import scatter_reduce, unique_bounded
from ..patterns.dense import dense_pull
from ..patterns.sparse import sparse_push
from .pagerank import compute_global_degrees

__all__ = ["bfs", "pseudo_diameter", "ALPHA", "BETA"]

#: Beamer et al. static switching parameters (as used by the paper).
ALPHA = 15.0
BETA = 18.0

INF = np.inf
_NO_LIDS = np.empty(0, dtype=np.int64)


def bfs(
    engine: Engine,
    root: int,
    alpha: float = ALPHA,
    beta: float = BETA,
    hybrid: bool = True,
    resume: bool = False,
) -> AlgorithmResult:
    """BFS from ``root`` (original vertex id).

    Returns a parent array in original ids (root's parent is itself,
    ``-1`` marks unreachable vertices) plus levels in ``extra``.
    ``hybrid=False`` forces pure top-down (for ablations).
    ``resume=True`` continues from the engine's latest attached
    checkpoint instead of starting over (falling back to a fresh run
    when there is none); recovery drivers and result certification
    wrap this call from outside — see ``docs/ROBUSTNESS.md``.
    """
    part, grid, fleet = engine.partition, engine.grid, engine.fleet
    n = part.n_vertices
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    root_rel = int(part.perm[root])

    st = engine.resume_from_checkpoint("bfs") if resume else None
    if st is None:
        engine.reset_timers()
        compute_global_degrees(engine)
        m_total = 0.0
        engine.alloc("parent", np.float64, fill=INF)
        engine.alloc("level", np.float64, fill=INF)
        # Global edge count (sum of global degrees over one row
        # partition).
        for id_r, ranks in engine.row_groups():
            ctx0 = engine.ctx(ranks[0])
            m_total += float(ctx0.get("deg")[ctx0.row_slice].sum())

        # Seed the root everywhere it is visible.
        def seed_root(ctx):
            lm = ctx.localmap
            parent = ctx.get("parent")
            level = ctx.get("level")
            lids = []
            if lm.row_start <= root_rel < lm.row_stop:
                lids.append(lm.row_lid(root_rel))
            if lm.col_start <= root_rel < lm.col_stop:
                lids.append(lm.col_lid(root_rel))
            for lid in lids:
                parent[lid] = root
                level[lid] = 0.0
            deg = float(ctx.get("deg")[lids[0]]) if lids else None
            entry = (
                np.array([lm.row_lid(root_rel)], dtype=np.int64)
                if lm.row_start <= root_rel < lm.row_stop
                else np.empty(0, dtype=np.int64)
            )
            return entry, deg

        seeded = engine.map_ranks(seed_root)
        frontier: list[np.ndarray] = [entry for entry, _ in seeded]
        # Every rank seeing the root reads the same global degree.
        root_deg = next((d for _, d in seeded if d is not None), 0.0)

        n_visited = 1
        m_frontier = root_deg
        m_frontier_prev = 0.0
        m_unvisited = m_total - root_deg
        depth = 0
        bottom_up = False
        done = False
        direction_log: list[str] = []
    else:
        frontier = st["frontier"]
        n_visited = st["n_visited"]
        m_frontier = st["m_frontier"]
        m_frontier_prev = st["m_frontier_prev"]
        m_unvisited = st["m_unvisited"]
        depth = st["depth"]
        bottom_up = st["bottom_up"]
        done = st["done"]
        direction_log = st["direction_log"]

    def _loop_state():
        return {
            "frontier": frontier,
            "n_visited": n_visited,
            "m_frontier": m_frontier,
            "m_frontier_prev": m_frontier_prev,
            "m_unvisited": m_unvisited,
            "depth": depth,
            "bottom_up": bottom_up,
            "done": done,
            "direction_log": direction_log,
        }

    while not done:
        depth += 1
        if hybrid:
            growing = m_frontier > m_frontier_prev
            if not bottom_up and growing and m_frontier > m_unvisited / alpha:
                # Beamer: switch down only while the frontier grows.
                bottom_up = True
            elif bottom_up and (n_visited >= n or _frontier_size(engine, frontier) < n / beta):
                bottom_up = False
        direction_log.append("bottom-up" if bottom_up else "top-down")

        parent = fleet.stacked("parent")
        level = fleet.stacked("level")
        if not bottom_up:
            # Top-down: expand the frontier, claim unvisited ghosts —
            # every rank's frontier in one stacked pass.
            rows, counts = fleet.stack(frontier)
            degrees = fleet.row_degrees(rows)
            engine.charge_edges(None, degrees, segments=counts)
            # Claims are judged against the state the superstep began
            # with: a later slice of the expansion must not see an
            # earlier slice's claim as "visited" and drop a smaller
            # candidate for the same ghost.
            unvisited_before = parent == INF
            claimed = [_NO_LIDS]
            for ranks, src, dst in fleet.expand(rows, degrees):
                unvisited = unvisited_before[dst]
                src, dst, ranks = src[unvisited], dst[unvisited], ranks[unvisited]
                cand_parent = part.original_gid(
                    src + fleet.row_gid_shift[ranks]
                ).astype(np.float64)
                claimed.append(scatter_reduce(parent, dst, cand_parent, "min"))
            # MIN only lowers, so a ghost claimed in any slice of the
            # expansion did change; two slices may claim the same one.
            queues = fleet.split(
                unique_bounded(np.concatenate(claimed), fleet.size)
            )
            result = sparse_push(engine, "parent", queues, op="min")
        else:
            # Bottom-up: every unvisited owned vertex scans for a
            # frontier neighbor (level == depth - 1).  Communication is
            # *dense* (a parent-slice MIN reduction over the row group
            # plus the column broadcast) — the Graph500/Beamer-style
            # whole-frontier exchange: bottom-up only runs when the
            # frontier is a large fraction of the graph, exactly the
            # regime where the paper switches to dense communications
            # (§3.3.1), and the dense slice avoids the per-pair
            # duplication a queue exchange would ship.
            rows = np.flatnonzero((parent == INF) & fleet.row_mask)
            counts = fleet.counts(rows)
            degrees = fleet.row_degrees(rows)
            engine.charge_edges(None, degrees, segments=counts)
            for ranks, src, dst in fleet.expand(rows, degrees):
                in_frontier = level[dst] == depth - 1
                src, dst, ranks = src[in_frontier], dst[in_frontier], ranks[in_frontier]
                cand_parent = part.original_gid(
                    dst + fleet.col_gid_shift[ranks]
                ).astype(np.float64)
                scatter_reduce(parent, src, cand_parent, "min")
            dense_pull(engine, "parent", op="min")
            result = None

        flags_handle = None
        if result is not None:
            n_updated = result.n_updated
        else:
            # Dense path: count freshly visited row vertices (one
            # representative per row group) and share the verdict with
            # a one-word AllReduce, as a real dense iteration must.  No
            # rank consumes the reduced value locally, so an overlapped
            # engine issues it split-phase and hides the level-update
            # compute below behind it.
            n_updated = 0
            for id_r, ranks in engine.row_groups():
                ctx0 = engine.ctx(ranks[0])
                p0 = ctx0.get("parent")[ctx0.row_slice]
                l0 = ctx0.get("level")[ctx0.row_slice]
                n_updated += int(np.count_nonzero(np.isfinite(p0) & ~np.isfinite(l0)))
            flags = [np.array([float(n_updated)]) for _ in range(grid.n_ranks)]
            if engine.overlap:
                flags_handle = engine.comm.start_allreduce(
                    list(range(grid.n_ranks)), flags, op="max"
                )
            else:
                engine.comm.allreduce(list(range(grid.n_ranks)), flags, op="max")

        if n_updated == 0:
            if flags_handle is not None:
                engine.comm.wait(flags_handle)
            done = True
            engine.superstep_boundary("bfs", _loop_state())
            break

        # Record levels of freshly visited vertices and build the next
        # frontier (newly visited owned vertices, consistent per group).
        m_frontier_prev = m_frontier
        m_frontier = 0.0

        fresh = np.flatnonzero((parent != INF) & (level == INF))
        level[fresh] = depth
        engine.charge_vertices(None, fleet.n_total)
        if result is not None:
            new_frontier = [
                np.asarray(rows, dtype=np.int64) for rows in result.active_row
            ]
        else:
            new_frontier = fleet.split(fresh[fleet.row_mask[fresh]])
        if flags_handle is not None:
            engine.comm.wait(flags_handle)
        for id_r, ranks in engine.row_groups():
            ctx0 = engine.ctx(ranks[0])
            rows = new_frontier[ranks[0]]
            m_frontier += float(ctx0.get("deg")[rows].sum())
        frontier = new_frontier
        n_visited += n_updated
        m_unvisited -= m_frontier
        done = n_visited >= n
        engine.superstep_boundary("bfs", _loop_state())

    parent_state = engine.gather("parent")
    levels = engine.gather("level")
    reached = np.isfinite(parent_state)
    parents = np.full(n, -1, dtype=np.int64)
    parents[reached] = parent_state[reached].astype(np.int64)
    out_levels = np.where(np.isfinite(levels), levels, -1).astype(np.int64)
    return AlgorithmResult(
        values=parents,
        timings=engine.timing_report(),
        iterations=depth,
        counters=engine.counters.summary(),
        extra={
            "levels": out_levels,
            "n_visited": int(n_visited),
            "directions": direction_log,
        },
    )


def _frontier_size(engine: Engine, frontier: list[np.ndarray]) -> int:
    """Global frontier cardinality (one representative per row group)."""
    total = 0
    for id_r, ranks in engine.row_groups():
        total += int(np.asarray(frontier[ranks[0]]).size)
    return total


def pseudo_diameter(
    engine: Engine, start: int = 0, sweeps: int = 3, lanes: int = 1
) -> AlgorithmResult:
    """Lower-bound the graph diameter with repeated BFS sweeps.

    The classic double-sweep heuristic: BFS from ``start``, jump to the
    farthest vertex found, repeat.  The bound is monotone over sweeps
    and exact on trees.  Returns the bound in
    ``extra["diameter_lower_bound"]`` along with the endpoint pair
    realizing it.

    Sweeps run through the batched traversal path
    (:func:`~repro.algorithms.batch.bfs_batch`): with the default
    ``lanes=1`` each sweep degenerates to the single-source code path
    and the estimate is identical to the historical sequential
    implementation (asserted in tests); ``lanes>1`` probes that many
    farthest candidates per sweep in *one* fused traversal, which can
    only tighten the lower bound at a fraction of the sequential cost.
    """
    from .batch import bfs_batch

    part = engine.partition
    n = part.n_vertices
    if not 0 <= start < n:
        raise ValueError(f"start {start} out of range")
    lanes = max(1, min(int(lanes), n))
    best = 0
    endpoints = (start, start)
    roots = [start]
    total_iterations = 0
    timings = None
    counters = {}
    for _ in range(max(sweeps, 1)):
        res = bfs_batch(engine, roots)
        levels = res.extra["levels"]
        total_iterations += res.iterations
        timings = res.timings if timings is None else TimingReport(
            total=timings.total + res.timings.total,
            compute=timings.compute + res.timings.compute,
            comm=timings.comm + res.timings.comm,
        )
        counters = res.counters
        # Deepest reached vertex across this sweep's lanes.
        lane_far = [int(np.argmax(levels[:, j])) for j in range(len(roots))]
        lane_depth = [int(levels[lane_far[j], j]) for j in range(len(roots))]
        j = int(np.argmax(lane_depth))
        far, depth = lane_far[j], lane_depth[j]
        if depth > best:
            best = depth
            endpoints = (roots[j], far)
        if far == roots[j] or depth <= best - 1:
            break
        # Next sweep: the `lanes` farthest candidates of the winning
        # lane (stable order, so lanes=1 reproduces argmax exactly).
        order = np.argsort(-levels[:, j], kind="stable")[:lanes]
        roots = [int(v) for v in order]
    assert timings is not None
    return AlgorithmResult(
        values=None,
        timings=timings,
        iterations=total_iterations,
        counters=counters,
        extra={"diameter_lower_bound": best, "endpoints": endpoints},
    )
