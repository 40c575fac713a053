"""Linear-algebra (CuGraph-like) comparator (paper §5.7, Fig. 10).

CuGraph implements PageRank and friends over tuned sparse
matrix-vector kernels in a 2D distribution.  The trade the paper
measures on 4x A100 (zepy): the LA backend's PageRank is ~1.47x
*faster* (its SpMV kernels beat a general-purpose graph model when
computation dominates), but its CC and BFS are ~3.25x / ~2.64x
*slower*, because the algebraic formulation does dense full-matrix
work every iteration with no sparse frontiers or active-vertex queues.

Faithfully to that design, this backend:

* computes with *real* SciPy SpMVs over the same 2D partition (the
  fleet's stacked CSR, :meth:`~repro.core.fleet.Fleet.csr` — the
  engine's own PageRank reads the same operand),
* charges the tuned ``spmv_edge_rate`` of the device (faster per edge
  than the general model's ``edge_rate``),
* never builds queues: every iteration touches the whole matrix
  (min-plus semiring for CC, masked Boolean semiring for BFS).
"""

from __future__ import annotations

import numpy as np

from ..algorithms.bfs import check_count, validate_roots
from ..algorithms.components import component_answer
from ..algorithms.pagerank import dangling_partials
from ..cluster.config import ZEPY, ClusterConfig
from ..comm.grid import check_fraction
from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..graph.csr import Graph
from ..kernels import csr_pull, scatter_reduce
from ..patterns.dense import dense_pull, dense_push

__all__ = ["spmv_engine", "spmv_pagerank", "spmv_cc", "spmv_bfs"]


def spmv_engine(
    graph: Graph, n_ranks: int, cluster: ClusterConfig = ZEPY, **kwargs
) -> Engine:
    """An :class:`Engine` placed on the zepy-style workstation;
    ``n_ranks`` is an integer >= 1 (``ValueError`` otherwise)."""
    return Engine(graph, n_ranks=n_ranks, cluster=cluster, **kwargs)


#: Composition overhead of non-arithmetic semirings on an LA backend:
#: min-plus / masked-Boolean products are built from generic primitives
#: with materialized intermediates rather than a fused tuned kernel.
SEMIRING_WORK_PER_EDGE = 1.5


def _semiring_time(engine: Engine, n_edges) -> np.ndarray:
    """Every rank's semiring SpMV (CC's min-plus, BFS's masked Boolean)
    over ``n_edges[r]`` edges and its whole LID space: runs at the
    device's general edge rate with composition overhead, not at the
    tuned arithmetic-SpMV rate.  This asymmetry is why the paper's
    Fig. 10 shows the LA backend winning PageRank but losing CC/BFS."""
    return engine.costmodel.kernel_time(
        n_edges=n_edges,
        n_vertices=engine.fleet.n_total,
        work_per_edge=SEMIRING_WORK_PER_EDGE,
    )


def _local_edges(engine: Engine) -> np.ndarray:
    """Every rank's local edge count."""
    return np.array([blk.n_local_edges for blk in engine.partition.blocks])


def _leader_rows(engine: Engine) -> np.ndarray:
    """Boolean over stacked LIDs: the row cells of each row group's
    first rank, which hold every vertex exactly once."""
    fleet = engine.fleet
    first = np.zeros(fleet.n_ranks, dtype=bool)
    first[[ranks[0] for _, ranks in engine.row_groups()]] = True
    return fleet.row_mask & np.repeat(first, np.diff(fleet.base))


def spmv_pagerank(
    engine: Engine, iterations: int = 20, damping: float = 0.85
) -> AlgorithmResult:
    """PageRank as y = A x with tuned SpMV kernels: ``iterations`` an
    integer >= 1, ``damping`` a real in ``[0, 1]`` (``ValueError``
    otherwise, as :func:`~repro.algorithms.pagerank.pagerank`)."""
    iterations = check_count(iterations, "iterations")
    check_fraction(damping, "damping")
    engine.reset_timers()
    n = engine.partition.n_vertices
    fleet = engine.fleet

    engine.alloc("pr", np.float64, fill=1.0 / n)
    acc = engine.scratch("acc")
    pull = fleet.csr()
    # As in the engine's PageRank, the degree operands are derived once
    # per call, and the dangling mass rides the dense pull's row-group
    # AllReduce: no collective of its own.
    deg = fleet.cell_degrees()
    divisor, sinks = np.maximum(deg, 1.0), deg == 0
    dangling_mass = dangling_partials(fleet, np.flatnonzero(sinks))
    # every rank's tuned arithmetic (+/x) SpMV, and its damping update
    spmv_s = engine.costmodel.spmv_time(n_edges=_local_edges(engine), n_vertices=fleet.n_total)
    update_s = engine.costmodel.spmv_time(n_edges=0, n_vertices=fleet.n_total)

    for _ in range(iterations):
        pr = fleet.stacked("pr")
        partials = dangling_mass(pr)

        # y = A x, every rank's block in one product.
        x = pr / divisor
        x[sinks] = 0.0
        acc[...] = csr_pull(pull, x, "sum")
        engine.clocks.add_compute_all(spmv_s)
        dense_pull(engine, acc, "sum", partials)
        dangling = float(partials[0, 0])

        pr[...] = (1.0 - damping) / n + damping * (acc + dangling / n)
        engine.clocks.add_compute_all(update_s)
        engine.superstep_boundary("spmv")

    return AlgorithmResult(
        values=engine.gather("pr"),
        timings=engine.timing_report(),
        iterations=iterations,
        counters=engine.counters.summary(),
    )


def spmv_cc(engine: Engine, max_iterations: int | None = None) -> AlgorithmResult:
    """CC as min-plus label SpMVs: dense full-matrix work per step.
    ``max_iterations`` bounds the steps: ``None`` (to convergence) or an
    integer >= 1 (``ValueError`` otherwise)."""
    if max_iterations is not None:
        max_iterations = check_count(max_iterations, "max_iterations")
    engine.reset_timers()
    fleet = engine.fleet
    all_ranks = list(range(engine.n_ranks))
    engine.alloc("cc", np.float64)
    fleet.fill_windows(fleet.stacked("cc"), np.arange(engine.partition.n_vertices))
    pull = fleet.csr()
    leaders = _leader_rows(engine)
    semiring_s = _semiring_time(engine, _local_edges(engine))

    iterations = 0
    while True:
        iterations += 1
        lab = fleet.stacked("cc")
        before = lab[leaders]
        # Min-plus "SpMV": every edge participates, no frontier.
        np.minimum(lab, csr_pull(pull, lab, "min"), out=lab)
        engine.clocks.add_compute_all(semiring_s)
        dense_pull(engine, "cc", op="min")
        n_changed = int(np.count_nonzero(lab[leaders] != before))
        flags = [np.array([float(n_changed)]) for _ in all_ranks]
        engine.comm.allreduce(all_ranks, flags, op="max")
        engine.superstep_boundary("spmv")
        if n_changed == 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break

    labels = component_answer(engine.gather("cc").astype(np.int64))
    return AlgorithmResult(
        values=labels,
        timings=engine.timing_report(),
        iterations=iterations,
        counters=engine.counters.summary(),
    )


def spmv_bfs(engine: Engine, root: int) -> AlgorithmResult:
    """Level-synchronous BFS as masked Boolean-semiring SpMVs.

    No direction optimization and no compressed frontiers: each level
    is a full dense vector pass, the behaviour that costs the algebraic
    backend its BFS performance in the paper's Fig. 10.
    """
    part, fleet = engine.partition, engine.fleet
    (root,) = validate_roots(part.n_vertices, [root], "root").tolist()
    engine.reset_timers()
    all_ranks = list(range(engine.n_ranks))

    engine.alloc("level", np.float64, fill=np.inf)
    engine.alloc("front", np.float64)
    # the pushed frontier, rebuilt from zero every level: dead at every
    # superstep boundary, so scratch
    nxt = engine.scratch("next")
    # the root's row and column cells, everywhere it is visible
    (row_seeds, _), (col_seeds, _) = fleet.cells_of(np.array([part.perm[root]]))
    seeds = np.concatenate([row_seeds, col_seeds])
    fleet.stacked("level")[seeds] = 0.0
    fleet.stacked("front")[seeds] = 1.0
    rows = np.flatnonzero(fleet.row_mask)
    degrees = fleet.row_degrees(rows)
    leaders = _leader_rows(engine)
    semiring_s = _semiring_time(engine, _local_edges(engine))
    advance_s = _semiring_time(engine, 0)

    depth = 0
    while True:
        depth += 1
        # next = A x frontier (push across the whole matrix), masked by
        # unvisited; communicated densely.
        nxt[...] = 0.0
        level, front = fleet.stacked("level"), fleet.stacked("front")
        engine.clocks.add_compute_all(semiring_s)
        for _, ex in fleet.expand(rows, degrees):
            scatter_reduce(nxt, ex.dst[front[ex.src] > 0], 1.0, "max")
        dense_push(engine, nxt, op="max")

        fresh = (nxt > 0) & ~np.isfinite(level)
        level[fresh] = depth
        front[...] = 0.0
        front[fresh] = 1.0
        engine.clocks.add_compute_all(advance_s)
        n_new = int(np.count_nonzero(front[leaders] > 0))
        flags = [np.array([float(n_new)]) for _ in all_ranks]
        engine.comm.allreduce(all_ranks, flags, op="max")
        engine.superstep_boundary("spmv")
        if n_new == 0:
            break

    levels = engine.gather("level")
    out = np.where(np.isfinite(levels), levels, -1).astype(np.int64)
    return AlgorithmResult(
        values=out,
        timings=engine.timing_report(),
        iterations=depth,
        counters=engine.counters.summary(),
    )
