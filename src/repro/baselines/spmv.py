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

from ..algorithms.bfs import check_count, check_fraction
from ..algorithms.components import component_answer
from ..algorithms.pagerank import compute_global_degrees, dangling_partials
from ..cluster.config import ZEPY, ClusterConfig
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


def _charge_semiring(engine: Engine, rank: int, n_edges: int, n_vertices: int) -> None:
    """Semiring SpMV (CC's min-plus, BFS's masked Boolean): runs at the
    device's general edge rate with composition overhead, not at the
    tuned arithmetic-SpMV rate.  This asymmetry is why the paper's
    Fig. 10 shows the LA backend winning PageRank but losing CC/BFS."""
    engine.clocks.add_compute(
        rank,
        engine.costmodel.kernel_time(
            n_edges=n_edges,
            n_vertices=n_vertices,
            work_per_edge=SEMIRING_WORK_PER_EDGE,
        ),
    )


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

    compute_global_degrees(engine)

    engine.alloc("pr", np.float64, fill=1.0 / n)
    engine.alloc("acc", np.float64)
    pull = fleet.csr()
    # As in the engine's PageRank, the dangling mass rides the dense
    # pull's row-group AllReduce: no collective of its own.
    dangling_mass = dangling_partials(fleet, np.flatnonzero(fleet.stacked("deg") == 0))
    # every rank's tuned arithmetic (+/x) SpMV, and its damping update
    edges = np.array([blk.n_local_edges for blk in engine.partition.blocks])
    spmv_s = engine.costmodel.spmv_time(n_edges=edges, n_vertices=fleet.n_total)
    update_s = engine.costmodel.spmv_time(n_edges=0, n_vertices=fleet.n_total)

    for _ in range(iterations):
        pr, deg, acc = fleet.stacked("pr"), fleet.stacked("deg"), fleet.stacked("acc")
        partials = dangling_mass(pr)

        # y = A x, every rank's block in one product.
        x = pr / np.maximum(deg, 1.0)
        x[deg == 0] = 0.0
        acc[...] = csr_pull(pull, x, "sum")
        engine.clocks.add_compute_all(spmv_s)
        dense_pull(engine, "acc", "sum", partials)
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
    grid, fleet = engine.grid, engine.fleet
    all_ranks = list(range(grid.n_ranks))
    engine.alloc("cc", np.float64)

    def init_labels(ctx):
        lm = ctx.localmap
        lab = ctx.get("cc")
        lab[lm.row_slice] = np.arange(lm.row_start, lm.row_stop)
        lab[lm.col_slice] = np.arange(lm.col_start, lm.col_stop)

    engine.foreach(init_labels)
    pull = fleet.csr()

    iterations = 0
    while True:
        iterations += 1
        snapshots = {
            id_r: engine.ctx(ranks[0]).get("cc")[engine.ctx(ranks[0]).row_slice].copy()
            for id_r, ranks in engine.row_groups()
        }
        # Min-plus "SpMV": every edge participates, no frontier.
        lab = fleet.stacked("cc")
        np.minimum(lab, csr_pull(pull, lab, "min"), out=lab)
        for ctx in engine:
            _charge_semiring(engine, ctx.rank, ctx.block.n_local_edges, ctx.n_total)
        dense_pull(engine, "cc", op="min")
        n_changed = 0
        for id_r, ranks in engine.row_groups():
            now = engine.ctx(ranks[0]).get("cc")[engine.ctx(ranks[0]).row_slice]
            n_changed += int(np.count_nonzero(now != snapshots[id_r]))
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
    engine.reset_timers()
    part, grid = engine.partition, engine.grid
    n = part.n_vertices
    all_ranks = list(range(grid.n_ranks))
    root_rel = int(part.perm[root])

    engine.alloc("level", np.float64, fill=np.inf)
    engine.alloc("front", np.float64)

    def seed_root(ctx):
        lm = ctx.localmap
        lvl, frontier = ctx.get("level"), ctx.get("front")
        if lm.row_start <= root_rel < lm.row_stop:
            lvl[lm.row_lid(root_rel)] = 0
            frontier[lm.row_lid(root_rel)] = 1.0
        if lm.col_start <= root_rel < lm.col_stop:
            lvl[lm.col_lid(root_rel)] = 0
            frontier[lm.col_lid(root_rel)] = 1.0

    engine.foreach(seed_root)

    depth = 0
    while True:
        depth += 1
        # next = A x frontier (push across the whole matrix), masked by
        # unvisited; communicated densely.
        engine.alloc("next", np.float64)

        def masked_spmv(ctx):
            frontier, nxt = ctx.get("front"), ctx.get("next")
            ex = ctx.expand(ctx.row_lids(), ctx.local_degrees())
            _charge_semiring(engine, ctx.rank, ctx.block.n_local_edges, ctx.n_total)
            if ex.dst.size:
                hits = frontier[ex.src] > 0
                scatter_reduce(nxt, ex.dst[hits], 1.0, "max")

        engine.foreach(masked_spmv)
        dense_push(engine, "next", op="max")
        n_new = 0

        def advance_frontier(ctx):
            lvl, nxt = ctx.get("level"), ctx.get("next")
            fresh = (nxt > 0) & ~np.isfinite(lvl)
            lvl[fresh] = depth
            frontier = ctx.get("front")
            frontier[...] = 0.0
            frontier[fresh] = 1.0
            _charge_semiring(engine, ctx.rank, 0, ctx.n_total)

        engine.foreach(advance_frontier)
        for id_r, ranks in engine.row_groups():
            ctx0 = engine.ctx(ranks[0])
            n_new += int(
                np.count_nonzero(ctx0.get("front")[ctx0.row_slice] > 0)
            )
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
