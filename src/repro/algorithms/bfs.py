"""Direction-optimizing breadth-first search (paper §4).

A standard hybrid BFS in the style of Beamer et al. with the paper's
static parameters (``ALPHA`` = 15, ``BETA`` = 18): top-down (push)
expansion while the frontier is small, switching to bottom-up (pull)
when the frontier's edge count exceeds ``m_unvisited / ALPHA`` (and
the frontier is growing), and back to top-down when it shrinks below
``N / BETA``.  Communication
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
parent updates are made consistent each iteration).  A top-down
superstep stamps levels only on the cells its exchange touched, so its
host work follows the frontier and the exchanged queues.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..comm.grid import check_count
from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..kernels import scatter_reduce, unique_bounded
from ..patterns.dense import dense_pull
from ..patterns.sparse import sparse_push

__all__ = [
    "bfs",
    "validate_roots",
    "check_count",
    "ALPHA",
    "BETA",
]

#: Beamer et al. static switching parameters (as used by the paper).
ALPHA = 15.0
BETA = 18.0

INF = np.inf
_NO_LIDS = np.empty(0, dtype=np.int64)


def validate_roots(n: int, roots, what: str = "roots") -> np.ndarray:
    """Validate a list of start vertices: integer, non-empty, in-range,
    no dupes.

    Every root, start and source an algorithm takes comes through
    here; a single one is passed as a one-element list.  A non-integer
    dtype (float, bool, object) is refused rather than truncated.
    Duplicate sources are rejected rather than silently fused — two
    identical lanes would waste a lane's worth of state and bandwidth;
    the caller should deduplicate and fan the result back out.
    """
    roots = np.asarray(roots).ravel()
    if roots.size == 0:
        raise ValueError(f"{what} must be non-empty")
    if roots.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integer vertex ids, not {roots.dtype}")
    bad = roots[(roots < 0) | (roots >= n)]
    if bad.size:
        raise ValueError(f"{what} out of range [0, {n}): {bad.tolist()}")
    roots = roots.astype(np.int64)
    uniq, counts = np.unique(roots, return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"duplicate {what}: {uniq[counts > 1].tolist()}")
    return roots


def bfs(engine: Engine, root: int, resume: bool = False) -> AlgorithmResult:
    """BFS from ``root`` (original vertex id).

    Returns a parent array in original ids (root's parent is itself,
    ``-1`` marks unreachable vertices) plus levels in ``extra``.
    ``resume=True`` continues from the engine's latest attached
    checkpoint instead of starting over (``NoCheckpointError`` when
    there is none); recovery drivers and result certification wrap
    this call from outside — see ``docs/ROBUSTNESS.md``.
    """
    part, fleet = engine.partition, engine.fleet
    n = part.n_vertices
    (root,) = validate_roots(n, [root], "root").tolist()
    root_rel = int(part.perm[root])
    # The row groups' first ranks hold every vertex's row cell once:
    # global counts and sums read their segments of a rank-major queue.
    # Global degrees are integer-valued float64 far below 2**53, so a
    # sum of them is exact in any order.
    first = np.zeros(fleet.n_ranks, dtype=bool)
    first[[ranks[0] for _, ranks in engine.row_groups()]] = True
    degree = fleet.cell_degrees()

    if resume:
        s = SimpleNamespace(**engine.resume_from_checkpoint("bfs"))
        rows = np.flatnonzero(fleet.row_mask & (fleet.stacked("level") == s.depth))
    else:
        engine.reset_timers()
        engine.alloc("parent", np.float64, fill=INF)
        engine.alloc("level", np.float64, fill=INF)
        global_deg = fleet.global_degrees()
        m_total = float(global_deg.sum())

        # Seed the root everywhere it is visible: its row cell on every
        # rank of its row group, its column cell on every rank of its
        # column group.
        (row_seeds, _), (col_seeds, _) = fleet.cells_of(np.array([root_rel]))
        seeds = np.concatenate([row_seeds, col_seeds])
        fleet.stacked("parent")[seeds] = root
        fleet.stacked("level")[seeds] = 0.0
        root_deg = float(global_deg[root_rel])
        rows = row_seeds
        s = SimpleNamespace(
            n_visited=1,
            m_frontier=root_deg,
            m_frontier_prev=0.0,
            m_unvisited=m_total - root_deg,
            depth=0,
            bottom_up=False,
            done=False,
            direction_log=[],
        )

    def saved():
        return vars(s)

    # Invariant at every superstep boundary: ``parent == inf`` exactly
    # where ``level == inf``.  Each superstep stamps the level of every
    # cell it gave a parent, so "unvisited" is one read of ``level``.
    # The frontier is one rank-major queue of stacked row LIDs,
    # ascending: exactly the row cells with ``level == depth`` (but
    # after the superstep that found nothing, which ends the run), so a
    # checkpoint does not hold it and a resume derives it.
    counts = fleet.counts(rows)
    while not s.done:
        s.depth += 1
        growing = s.m_frontier > s.m_frontier_prev
        if not s.bottom_up and growing and s.m_frontier > s.m_unvisited / ALPHA:
            # Beamer: switch down only while the frontier grows.
            s.bottom_up = True
        elif s.bottom_up and (s.n_visited >= n or counts[first].sum() < n / BETA):
            s.bottom_up = False
        s.direction_log.append("bottom-up" if s.bottom_up else "top-down")

        parent = fleet.stacked("parent")
        level = fleet.stacked("level")
        if not s.bottom_up:
            # Top-down: expand the frontier, claim unvisited ghosts —
            # every rank's frontier in one stacked pass.
            degrees = fleet.row_degrees(rows)
            engine.charge_edges(None, degrees, segments=counts)
            # Claims are judged against the state the superstep began
            # with (``level`` is not written until the exchange is
            # over): a later slice of the expansion must not see an
            # earlier slice's claim as "visited" and drop a smaller
            # candidate for the same ghost.
            claimed = [_NO_LIDS]
            for owner, ex in fleet.expand(rows, degrees):
                unvisited = level[ex.dst] == INF
                # each queue entry's original id, once per entry
                entry_gid = part.original_gid(ex.queue + fleet.row_gid_shift[owner])
                cand = entry_gid[ex.entry[unvisited]].astype(np.float64)
                claimed.append(scatter_reduce(parent, ex.dst[unvisited], cand, "min"))
            # MIN only lowers, so a ghost claimed in any slice of the
            # expansion did change; two slices may claim the same one.
            queue = unique_bounded(np.concatenate(claimed), fleet.size)
            result = sparse_push(engine, "parent", queue, op="min")
            n_updated = result.n_updated
            # the exchange wrote nothing outside what it touched
            fresh = result.touched
            fresh = fresh[(level[fresh] == INF) & (parent[fresh] != INF)]
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
            result = None
            unvisited = level == INF
            open_cells = unvisited & fleet.row_mask
            open_rows = np.flatnonzero(open_cells)
            degrees = fleet.row_degrees(open_rows)
            engine.charge_edges(None, degrees, segments=fleet.counts(open_rows))
            for owner, ex in fleet.expand(open_rows, degrees):
                in_frontier = level[ex.dst] == s.depth - 1
                entry, dst = ex.entry[in_frontier], ex.dst[in_frontier]
                cand_parent = part.original_gid(
                    dst + fleet.col_gid_shift[owner[entry]]
                ).astype(np.float64)
                np.minimum.at(parent, ex.queue[entry], cand_parent)

            def fresh_rows(parent):
                # The next frontier, final once the row groups reduced:
                # its row-window counts ride the column Broadcasts.
                nonlocal rows, counts
                rows = np.flatnonzero(open_cells & (parent != INF))
                counts = fleet.counts(rows)
                return counts

            n_updated = int(dense_pull(engine, "parent", op="min", count=fresh_rows))
            fresh = np.flatnonzero(unvisited & (parent != INF))

        if n_updated == 0:
            s.done = True
            engine.superstep_boundary("bfs", saved)
            break

        # Record levels of freshly visited vertices and build the next
        # frontier (newly visited owned vertices, consistent per group).
        level[fresh] = s.depth
        engine.charge_vertices(None, fleet.n_total)
        if result is not None:
            rows = result.rows
            counts = fleet.counts(rows)
        s.m_frontier_prev = s.m_frontier
        s.m_frontier = float(degree[rows[np.repeat(first, counts)]].sum())
        s.n_visited += n_updated
        s.m_unvisited -= s.m_frontier
        s.done = s.n_visited >= n
        engine.superstep_boundary("bfs", saved)

    parent_state = engine.gather("parent")
    levels = engine.gather("level")
    reached = np.isfinite(parent_state)
    parents = np.full(n, -1, dtype=np.int64)
    parents[reached] = parent_state[reached].astype(np.int64)
    out_levels = np.where(np.isfinite(levels), levels, -1).astype(np.int64)
    return AlgorithmResult(
        values=parents,
        timings=engine.timing_report(),
        iterations=s.depth,
        counters=engine.counters.summary(),
        extra={
            "levels": out_levels,
            "n_visited": int(s.n_visited),
            "directions": s.direction_log,
        },
    )
