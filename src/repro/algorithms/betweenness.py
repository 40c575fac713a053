"""Betweenness centrality (extension; Brandes on the 2D engine).

Brandes' algorithm per source: a level-synchronous forward phase counts
shortest paths (``sigma``), then a backward phase accumulates
dependencies (``delta``) level by level.  Both phases are sums over
one BFS level's neighborhood at a time, so each level maps onto one
dense pull exchange (row-group SUM AllReduce + column broadcast) — the
same pattern PageRank uses, demonstrating that even a multi-phase
centrality fits the paper's communication repertoire unchanged.

Exact when run over all sources; the standard sampled approximation
(Brandes & Pich) scales each sampled source's contribution by ``n/k``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..kernels import csr_pull
from ..patterns.dense import dense_pull
from .bfs import bfs, check_count, validate_roots

__all__ = ["betweenness"]


def _forward_sigma(engine: Engine, level: np.ndarray, depth_max: int):
    """Level-synchronous shortest-path counting into state ``sigma``.

    ``level`` is the BFS level of every rank-stacked LID.  Each level
    is one CSR pull over every rank's block: the neighbor mask folds
    into the operand as zeros, the row mask is applied to the result.
    """
    fleet = engine.fleet
    sigma, acc = fleet.stacked("sigma"), engine.scratch("acc")
    pull = fleet.csr()
    full_queue, rows_per_rank = fleet.full_queue()
    for d in range(1, depth_max + 1):
        at_d = level == d
        engine.charge_edges(
            None, full_queue, segments=rows_per_rank, cache_key="bc.full"
        )
        from_above = np.where(level == d - 1, sigma, 0.0)
        acc[...] = np.where(at_d, csr_pull(pull, from_above, "sum"), 0.0)
        dense_pull(engine, acc, op="sum")
        sigma[at_d] = acc[at_d]
        engine.charge_vertices(None, fleet.n_total)


def _backward_delta(engine: Engine, level: np.ndarray, depth_max: int):
    """Dependency accumulation into state ``delta`` (descending levels)."""
    fleet = engine.fleet
    sigma, delta = fleet.stacked("sigma"), fleet.stacked("delta")
    acc = engine.scratch("acc")
    pull = fleet.csr()
    full_queue, rows_per_rank = fleet.full_queue()
    for d in range(depth_max, 0, -1):
        at = level == d - 1
        engine.charge_edges(
            None, full_queue, segments=rows_per_rank, cache_key="bc.full"
        )
        from_below = np.where(
            level == d, (1.0 + delta) / np.maximum(sigma, 1.0), 0.0
        )
        acc[...] = np.where(at, csr_pull(pull, from_below, "sum"), 0.0)
        dense_pull(engine, acc, op="sum")
        delta[at] = sigma[at] * acc[at]
        engine.charge_vertices(None, fleet.n_total)


def betweenness(
    engine: Engine,
    sources: Optional[Sequence[int]] = None,
    k_samples: Optional[int] = None,
    seed: int = 0,
    normalized: bool = False,
) -> AlgorithmResult:
    """Betweenness centrality (exact or source-sampled).

    Parameters
    ----------
    sources:
        Explicit source set (original vertex ids).  Default: all
        vertices (exact Brandes) unless ``k_samples`` is given.
    k_samples:
        Sample this many sources uniformly (an integer >= 1; more than
        ``n`` samples every vertex); contributions are scaled by
        ``n / k`` (Brandes-Pich estimator).
    normalized:
        Divide by ``(n-1)(n-2)`` (the undirected networkx convention
        times the pair factor), mapping scores to ``[0, 1]``.
    """
    if sources is not None and k_samples is not None:
        raise ValueError("pass either sources or k_samples, not both")
    if k_samples is not None:
        k_samples = check_count(k_samples, "k_samples")
    engine.reset_timers()
    part, fleet = engine.partition, engine.fleet
    n = part.n_vertices
    if k_samples is not None:
        rng = np.random.default_rng(seed)
        sources = rng.choice(n, size=min(k_samples, n), replace=False)
        scale = n / len(sources)
    elif sources is None:
        sources = np.arange(n)
        scale = 1.0
    else:
        sources = validate_roots(n, sources, "sources")
        scale = 1.0

    bc = np.zeros(n)
    total_iterations = 0
    # bfs() resets the engine timers per call, so accumulate manually.
    t_total = t_comp = t_comm = 0.0
    from ..comm.counters import CommCounters

    all_counters = CommCounters()
    for s in sources:
        res = bfs(engine, root=int(s))
        levels_global = res.extra["levels"]
        depth_max = int(levels_global.max(initial=0))
        total_iterations += res.iterations
        # BFS left a consistent 'level' state behind on every rank
        # (inf where unreached); the sweeps below run on its
        # rank-stacked form.
        reached = fleet.stacked("level")
        level = np.where(np.isfinite(reached), reached, -1).astype(np.int64)
        for name in ("sigma", "delta"):
            engine.alloc(name, np.float64)
        fleet.stacked("sigma")[level == 0] = 1.0
        engine.charge_vertices(None, fleet.n_total)
        if depth_max > 0:
            _forward_sigma(engine, level, depth_max)
            _backward_delta(engine, level, depth_max)
        deltas = engine.gather("delta")
        deltas[int(s)] = 0.0
        bc += scale * deltas
        t = engine.timing_report()
        t_total += t.total
        t_comp += t.compute
        t_comm += t.comm
        all_counters.merge(engine.counters)

    bc /= 2.0  # undirected: each (s, t) pair visited from both ends
    if normalized and n > 2:
        bc /= (n - 1) * (n - 2) / 2.0
    from ..core.result import TimingReport

    return AlgorithmResult(
        values=bc,
        timings=TimingReport(total=t_total, compute=t_comp, comm=t_comm),
        iterations=total_iterations,
        counters=all_counters.summary(),
        extra={"n_sources": len(sources), "scale": scale},
    )
