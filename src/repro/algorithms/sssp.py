"""Single-source shortest paths (extension beyond the paper's Table 3).

Bellman-Ford-style label correcting over the paper's sparse push
pattern: distances relax along local edges (``dist[u] <-
min(dist[u], dist[v] + w(v, u))``), updated ghosts exchange through
the column groups, owners synchronize through the row groups, and the
active-vertex queue carries exactly the vertices whose distance
improved — the same machinery as color-propagation CC with a weighted
reduction, demonstrating how naturally the substrate generalizes to
new vertex-state algorithms.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..kernels import scatter_reduce
from ..patterns.sparse import sparse_push

__all__ = ["sssp"]

INF = np.inf


def sssp(
    engine: Engine,
    root: int,
    max_iterations: int | None = None,
    resume: bool = False,
) -> AlgorithmResult:
    """Shortest path distance from ``root`` to every vertex.

    Requires non-negative edge weights.  Returns distances in original
    vertex order (``inf`` for unreachable vertices), exactly equal to a
    serial Bellman-Ford / Dijkstra result.  ``resume=True`` continues
    from the engine's latest attached checkpoint (see
    ``docs/ROBUSTNESS.md``).
    """
    part, grid = engine.partition, engine.grid
    if not part.weighted:
        raise ValueError("sssp needs an edge-weighted graph")
    n = part.n_vertices
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    root_rel = int(part.perm[root])

    st = engine.resume_from_checkpoint("sssp") if resume else None
    if st is None:
        engine.reset_timers()

        def seed_root(ctx):
            lm = ctx.localmap
            dist = ctx.alloc("dist", np.float64, fill=INF)
            if lm.row_start <= root_rel < lm.row_stop:
                dist[lm.row_lid(root_rel)] = 0.0
            if lm.col_start <= root_rel < lm.col_stop:
                dist[lm.col_lid(root_rel)] = 0.0
            engine.charge_vertices(ctx.rank, ctx.n_total)
            return (
                np.array([lm.row_lid(root_rel)], dtype=np.int64)
                if lm.row_start <= root_rel < lm.row_stop
                else np.empty(0, dtype=np.int64)
            )

        frontier = engine.map_ranks(seed_root)
        iterations = 0
        done = False
    else:
        frontier = st["frontier"]
        iterations = st["iterations"]
        done = st["done"]

    while not done:
        iterations += 1

        def relax(ctx):
            dist = ctx.get("dist")
            rows = frontier[ctx.rank]
            degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
            engine.charge_edges(ctx.rank, degs, work_per_edge=1.5)
            src, dst, w = ctx.expand(rows)
            if dst.size == 0:
                return np.empty(0, dtype=np.int64)
            cand = dist[src] + w
            return scatter_reduce(dist, dst, cand, "min")

        queues = engine.map_ranks(relax)
        result = sparse_push(engine, "dist", queues, op="min")
        frontier = result.active_row
        done = result.n_updated == 0 or (
            max_iterations is not None and iterations >= max_iterations
        )
        engine.superstep_boundary(
            "sssp",
            {"frontier": frontier, "iterations": iterations, "done": done},
        )

    values = engine.gather("dist")
    reached = np.isfinite(values)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=iterations,
        counters=engine.counters.summary(),
        extra={"n_reached": int(np.count_nonzero(reached))},
    )
