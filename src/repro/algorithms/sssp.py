"""Single-source shortest paths (extension beyond the paper's Table 3).

Bellman-Ford-style label correcting over the paper's sparse push
pattern: distances relax along local edges (``dist[u] <-
min(dist[u], dist[v] + w(v, u))``), updated ghosts exchange through
the column groups, owners synchronize through the row groups, and the
active-vertex queue carries exactly the vertices whose distance
improved — the same :func:`~repro.core.program.run_vertex_program`
loop as color-propagation CC with a weighted edge function,
demonstrating how naturally the substrate generalizes to new
vertex-state algorithms.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.engine import Engine
from ..core.program import VertexProgram, run_vertex_program
from ..core.result import AlgorithmResult
from .bfs import check_count, validate_roots

__all__ = ["sssp", "require_sssp_weights"]

INF = np.inf


def require_sssp_weights(engine: Engine, caller: str) -> None:
    """Reject graphs label-correcting SSSP cannot finish on.

    On a symmetric graph one negative edge is a negative 2-cycle:
    distances would fall by ``|w|`` per superstep forever.
    """
    weights = engine.partition.weights
    if weights is None:
        raise ValueError(f"{caller} needs an edge-weighted graph")
    if weights.size and (low := float(weights.min())) < 0:
        raise ValueError(f"{caller} needs non-negative edge weights, got {low}")


def sssp(
    engine: Engine,
    root: int,
    max_iterations: int | None = None,
    resume: bool = False,
) -> AlgorithmResult:
    """Shortest path distance from ``root`` to every vertex.

    Requires non-negative edge weights (``ValueError`` otherwise).
    Returns distances in original vertex order (``inf`` for unreachable
    vertices), exactly equal to a serial Bellman-Ford / Dijkstra
    result.  ``max_iterations`` bounds the supersteps: an integer >= 1,
    else ``ValueError``; ``None`` runs to convergence.  ``resume=True``
    continues from the engine's latest attached checkpoint (see
    ``docs/ROBUSTNESS.md``).
    """
    require_sssp_weights(engine, "sssp")
    if max_iterations is not None:
        max_iterations = check_count(max_iterations, "max_iterations")
    (root,) = validate_roots(engine.partition.n_vertices, [root], "root").tolist()
    program = VertexProgram(
        name="dist",
        init=lambda gids: np.where(gids == root, 0.0, INF),
        along_edge=lambda dist, weights: dist + weights,
        op="min",
        direction="push",
        mode="sparse",
        max_iterations=max_iterations,
        work_per_edge=1.5,
    )
    result = run_vertex_program(engine, program, resume=resume, tag="sssp")
    return replace(
        result,
        extra={"n_reached": int(np.count_nonzero(np.isfinite(result.values)))},
    )
