"""Experiment harness reproducing the paper's evaluation runs.

Provides one entry point per experimental axis (strong scaling, weak
scaling, ablations, comparisons) returning :class:`ExperimentRow`
records that the ``benchmarks/`` suite prints in the same layout as the
paper's figures and tables.

All runs place the stand-in dataset on a *scaled* machine
(:meth:`repro.cluster.config.ClusterConfig.scaled`), which restores the
paper's bandwidth/compute-dominated operating regime; modeled times
then read as full-scale estimates (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..algorithms import (
    bfs,
    connected_components,
    label_propagation,
    max_weight_matching,
    pagerank,
    pointer_jumping,
)
from ..cluster.config import AIMOS, ClusterConfig
from ..comm.grid import Grid2D, squarest_grid
from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..core.trace import IterationTrace, TraceRecorder
from ..graph.datasets import LoadedDataset, load

__all__ = [
    "ALGORITHMS",
    "sample_bfs_roots",
    "ExperimentRow",
    "run_algorithm",
    "make_engine",
    "strong_scaling",
    "weak_scaling",
    "format_rows",
    "RANK_GRIDS",
]

#: Algorithm runners keyed by the paper's abbreviations (Table 3).
ALGORITHMS: dict[str, Callable[..., AlgorithmResult]] = {
    "PR": lambda engine, **kw: pagerank(engine, iterations=kw.get("iterations", 20)),
    "CC": lambda engine, **kw: connected_components(engine),
    "BFS": lambda engine, **kw: bfs(engine, root=kw.get("root", 0)),
    "LP": lambda engine, **kw: label_propagation(
        engine, iterations=kw.get("iterations", 20)
    ),
    "MWM": lambda engine, **kw: max_weight_matching(engine),
    "PJ": lambda engine, **kw: pointer_jumping(engine),
}

#: Grids used for the paper's rank counts (square where possible;
#: 100/200/400 use the paper's WDC layouts).
RANK_GRIDS: dict[int, Grid2D] = {
    1: Grid2D(1, 1),
    4: Grid2D(2, 2),
    16: Grid2D(4, 4),
    64: Grid2D(8, 8),
    100: Grid2D(10, 10),
    200: Grid2D(R=20, C=10),
    256: Grid2D(16, 16),
    400: Grid2D(20, 20),
}


@dataclass
class ExperimentRow:
    """One measured configuration (one point of a paper figure)."""

    experiment: str
    dataset: str
    algorithm: str
    n_ranks: int
    grid: str
    time_total: float
    time_compute: float
    time_comm: float
    iterations: int
    teps: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)


def grid_for(n_ranks: int) -> Grid2D:
    """The grid a given rank count uses in the paper's experiments.

    Rank counts outside the paper's tables fall back to the most
    square factor pair (the paper's stated layout preference).
    """
    if n_ranks in RANK_GRIDS:
        return RANK_GRIDS[n_ranks]
    return squarest_grid(n_ranks)


def make_engine(
    dataset: LoadedDataset,
    n_ranks: int,
    cluster: ClusterConfig = AIMOS,
    grid: Optional[Grid2D] = None,
    **engine_kwargs,
) -> Engine:
    """Engine for a stand-in dataset on the matching scaled machine."""
    return Engine(
        dataset.graph,
        grid=grid if grid is not None else grid_for(n_ranks),
        cluster=cluster.scaled(dataset.scale_factor),
        memory_scale=dataset.scale_factor,
        **engine_kwargs,
    )


def run_algorithm(
    algo: str,
    engine: Engine,
    experiment: str = "",
    dataset: str = "",
    full_scale_edges: Optional[int] = None,
    **kwargs,
) -> ExperimentRow:
    """Run one algorithm and package the timings as a row.

    The row carries the exact per-iteration trace
    (``extra["trace"]``: a list of
    :class:`~repro.core.trace.IterationTrace`), so comm/comp splits and
    traffic decay curves downstream come from measured counter deltas.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; choose from {sorted(ALGORITHMS)}")
    result = ALGORITHMS[algo](engine, **kwargs)
    trace: list[IterationTrace] = TraceRecorder(engine).collect()
    edges = full_scale_edges if full_scale_edges else engine.graph.n_edges
    return ExperimentRow(
        experiment=experiment,
        dataset=dataset,
        algorithm=algo,
        n_ranks=engine.n_ranks,
        grid=f"{engine.grid.C}x{engine.grid.R}",
        time_total=result.timings.total,
        time_compute=result.timings.compute,
        time_comm=result.timings.comm,
        iterations=result.iterations,
        teps=result.timings.teps(edges),
        extra={"counters": result.counters, "trace": trace},
    )


def strong_scaling(
    dataset_abbr: str,
    algos: Sequence[str],
    rank_counts: Sequence[int],
    target_edges: int = 1 << 16,
    cluster: ClusterConfig = AIMOS,
    experiment: str = "strong",
    seed: int = 0,
) -> list[ExperimentRow]:
    """Strong scaling: one fixed input, growing rank counts (Fig. 3)."""
    weighted = "MWM" in algos
    ds = load(dataset_abbr, target_edges=target_edges, seed=seed, weighted=weighted)
    rows = []
    for algo in algos:
        for p in rank_counts:
            engine = make_engine(ds, p, cluster=cluster)
            rows.append(
                run_algorithm(
                    algo,
                    engine,
                    experiment=experiment,
                    dataset=dataset_abbr,
                    full_scale_edges=ds.meta.n_edges,
                )
            )
    return rows


def weak_scaling(
    family: str,
    algos: Sequence[str],
    rank_counts: Sequence[int],
    vertices_per_rank: int = 1 << 12,
    edge_factor: int = 16,
    cluster: ClusterConfig = AIMOS,
    experiment: str = "weak",
    seed: int = 0,
) -> list[ExperimentRow]:
    """Weak scaling: problem grows with rank count (Fig. 4).

    The paper uses 2^24 vertices / 2^28 edges per rank; the stand-in
    keeps the per-rank edge factor and scales the machine so the ratio
    of fixed overheads to volume matches the paper's sizes.
    """
    from ..graph.generators import erdos_renyi_gnm, rmat

    paper_edges_per_rank = (1 << 24) * edge_factor
    rows = []
    for p in rank_counts:
        n = vertices_per_rank * p
        m_slots = n * edge_factor
        scale_exp = max(n - 1, 1).bit_length()
        if family.upper() == "RMAT":
            g = rmat(scale_exp, edgefactor=edge_factor, seed=seed)
        elif family.upper() == "RAND":
            g = erdos_renyi_gnm(1 << scale_exp, m_slots, seed=seed)
        else:
            raise ValueError(f"unknown weak-scaling family {family!r}")
        scale_factor = paper_edges_per_rank * p / max(g.n_edges, 1)
        engine = Engine(
            g,
            grid=grid_for(p),
            cluster=cluster.scaled(scale_factor),
            memory_scale=scale_factor,
        )
        for algo in algos:
            rows.append(
                run_algorithm(
                    algo,
                    engine,
                    experiment=experiment,
                    dataset=f"{family.upper()}{scale_exp}",
                    full_scale_edges=int(paper_edges_per_rank * p),
                )
            )
    return rows


def format_rows(rows: Sequence[ExperimentRow], title: str = "") -> str:
    """Render rows as the aligned table the benches print."""
    header = (
        f"{'dataset':>8} {'algo':>5} {'ranks':>5} {'grid':>7} "
        f"{'total[s]':>10} {'comp[s]':>10} {'comm[s]':>10} "
        f"{'iters':>6} {'GTEPS':>8}"
    )
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.dataset:>8} {r.algorithm:>5} {r.n_ranks:>5} {r.grid:>7} "
            f"{r.time_total:>10.4f} {r.time_compute:>10.4f} {r.time_comm:>10.4f} "
            f"{r.iterations:>6} {r.teps / 1e9:>8.2f}"
        )
    return "\n".join(lines)


def sample_bfs_roots(graph, k: int = 64, seed: int = 0) -> "np.ndarray":
    """Graph500-style BFS root sampling.

    Roots are drawn uniformly from the giant component with degree >= 1
    (the benchmark's requirement that searches do real work), without
    replacement where possible.
    """
    import numpy as np

    from ..graph.transforms import largest_component

    _, members = largest_component(graph)
    degs = graph.degrees()[members]
    candidates = members[degs > 0]
    if candidates.size == 0:
        raise ValueError("graph has no traversable component")
    rng = np.random.default_rng(seed)
    k = min(k, candidates.size)
    return np.sort(rng.choice(candidates, size=k, replace=False))
