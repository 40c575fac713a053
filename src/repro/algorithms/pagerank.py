"""PageRank as a pull-based vertex state program (paper §4).

The paper deliberately implements PageRank in the *general* graph
computational model — a pull update with dense communications — rather
than as an optimized linear-algebra routine (that optimized form is the
CuGraph baseline, :mod:`repro.baselines.spmv`, which the paper finds
~1.47x faster at small scale).

Every iteration:

1. each rank gathers ``pr[u] / deg[u]`` over its local edges into a
   per-owned-vertex accumulator (partial sums — a vertex's full
   neighborhood spans its row group) — ``acc = A (pr / deg)``, one
   :func:`~repro.kernels.csr_pull` over every rank's block at once,
   into the engine's ``acc`` scratch (dead at every superstep
   boundary, so no state);
2. a dense pull exchange (row-group AllReduce SUM + column-group
   Broadcasts) completes the sums and refreshes ghosts;
3. dangling mass is folded in (each rank's partial over its column
   window rides step 2's AllReduce as one trailing word,
   :func:`dangling_partials`) and the damping update is applied locally.

Vertex degrees are *global* degrees (paper §3.2: the true degree is
the sum of local degrees across the row group).  They are graph
structure, so the fleet derives them once, as a set-up step without a
modeled charge (:meth:`~repro.core.fleet.Fleet.cell_degrees`), and a
run reads them where they are: its only states are ``pr`` and, when
personalized, ``tele``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import numpy as np

from ..comm.grid import check_count, check_fraction, check_positive
from ..core.engine import Engine
from ..core.fleet import Fleet
from ..core.result import AlgorithmResult
from ..kernels import csr_pull
from ..patterns.dense import dense_pull

__all__ = ["pagerank", "dangling_partials"]


def dangling_partials(fleet: Fleet, dangling: np.ndarray):
    """``pr -> (p, 1)`` partials, row ``r`` the sum of the stacked ``pr``
    over the ``dangling`` cells (ascending stacked LIDs) in rank ``r``'s
    *column* window.  A row group's column windows cover every vertex
    once, so as the ``tail`` of :func:`~repro.patterns.dense.dense_pull`
    they come back as the global dangling mass on every rank."""
    # rank r's column window: stacked LIDs [col_start, col_stop) - shift
    lo = dangling.searchsorted(fleet.col_start - fleet.col_gid_shift)
    hi = dangling.searchsorted(fleet.col_stop - fleet.col_gid_shift)
    cells = np.concatenate([dangling[a:b] for a, b in zip(lo, hi)])
    held = hi > lo
    starts = (np.cumsum(hi - lo) - (hi - lo))[held]

    def partials(pr: np.ndarray) -> np.ndarray:
        out = np.zeros((fleet.n_ranks, 1))
        if starts.size:  # one numpy sum per window
            out[held, 0] = np.add.reduceat(pr[cells], starts)
        return out

    return partials


def pagerank(
    engine: Engine,
    iterations: int = 20,
    damping: float = 0.85,
    personalization: Optional[np.ndarray] = None,
    weighted: bool = False,
    tol: Optional[float] = None,
    resume: bool = False,
) -> AlgorithmResult:
    """Run synchronous PageRank (paper default: 20 fixed iterations).

    Parameters
    ----------
    iterations:
        How many iterations to run, an integer >= 1 (``0``, a float or
        a bool raises ``ValueError``).
    damping:
        The damping factor, a real in ``[0, 1]`` (outside it, or a
        bool, raises ``ValueError``; :func:`~repro.comm.grid.check_fraction`).
    personalization:
        Optional teleport distribution in original vertex order
        (normalized internally); dangling mass follows it.
    weighted:
        Spread rank proportionally to edge weights instead of uniformly
        over neighbors.
    tol:
        Optional early stop once ``max |delta pr| < tol`` (checked with
        a one-word MAX reduction each iteration,
        :meth:`~repro.core.engine.Engine.reduce_partials`); ``iterations``
        remains the hard bound.  A finite positive real: zero, a
        negative, infinity or a bool raises ``ValueError``.
    resume:
        Continue from the engine's latest attached checkpoint instead
        of starting over (``NoCheckpointError`` when there is none);
        see ``docs/ROBUSTNESS.md``.

    Returns the PageRank vector in original vertex order; it matches
    the serial reference to floating-point roundoff.  PageRank's
    floating-point sum reductions are sensitive to the operand grouping
    a grid induces: a run resumed on a *different* grid (an elastic
    shrink) agrees with the fault-free run to within ~1 ulp rather
    than bit-exactly; see ``docs/ROBUSTNESS.md``.
    """
    iterations = check_count(iterations, "iterations")
    check_fraction(damping, "damping")
    if tol is not None:
        check_positive(tol, "tol")
    n = engine.partition.n_vertices
    fleet = engine.fleet
    if n == 0:  # an empty graph: an empty answer, no modeled time
        engine.reset_timers()
        return AlgorithmResult(
            values=np.empty(0),
            timings=engine.timing_report(),
            iterations=0,
            counters=engine.counters.summary(),
            extra={"damping": damping},
        )

    if personalization is not None:
        personalization = np.asarray(personalization, dtype=np.float64)
        if personalization.shape != (n,):
            raise ValueError(f"personalization must have shape ({n},)")
        if personalization.min() < 0 or personalization.sum() <= 0:
            raise ValueError("personalization must be non-negative and non-zero")

    if resume:
        s = SimpleNamespace(**engine.resume_from_checkpoint("pagerank"))
    else:
        engine.reset_timers()
        if personalization is not None:
            teleport_global = personalization / personalization.sum()
            engine.scatter_global("tele", teleport_global)
        engine.alloc("pr", np.float64, fill=1.0 / n)
        s = SimpleNamespace(iterations_run=0, done=False)

    # Every step, charges included, is a single pass over the
    # rank-stacked state (repro.core.fleet).
    pull = fleet.csr(weighted=weighted)
    full_queue, rows_per_rank = fleet.full_queue()
    # Static degrees: derived operands built once, `x` / `new` per call.
    deg = fleet.cell_degrees(weighted)
    safe_deg = np.maximum(deg, 1e-300)
    dangling = np.flatnonzero(deg == 0)
    dangling_mass = dangling_partials(fleet, dangling)
    x, new = np.empty(fleet.size), np.empty(fleet.size)
    acc = engine.scratch("acc")
    if personalization is not None:
        teleport_share = (1.0 - damping) * fleet.stacked("tele")
    while s.iterations_run < iterations and not s.done:
        s.iterations_run += 1
        pr = fleet.stacked("pr")

        # Dangling mass: each rank's partial over its column window,
        # the tail word of the dense pull's row-group AllReduce below.
        engine.charge_vertices(None, fleet.col_stop - fleet.col_start)
        partials = dangling_mass(pr)

        # Local partial gathers: acc = A @ (pr / deg), every rank's
        # block in one CSR pull (rows outside a row window are empty,
        # so this also resets them).
        engine.charge_edges(
            None, full_queue, segments=rows_per_rank, cache_key="pr.full"
        )
        np.divide(pr, safe_deg, out=x)
        x[dangling] = 0.0
        acc[...] = csr_pull(pull, x, "sum")

        # Complete the sums along row groups, refresh ghosts; every
        # rank now holds the dangling total.
        dense_pull(engine, acc, "sum", partials)
        dangling_total = float(partials[0, 0])

        # Damping update (acc is consistent on every LID).
        if personalization is not None:
            np.multiply(fleet.stacked("tele"), dangling_total, out=new)
            new += acc
            new *= damping
            new += teleport_share
        else:
            np.add(acc, dangling_total / n, out=new)
            new *= damping
            new += (1.0 - damping) / n
        if tol is not None:
            # each rank's largest change over its row window
            rows = fleet.row_mask
            rank_delta = fleet.row_window_max(np.abs(new[rows] - pr[rows]))
        pr[...] = new
        engine.charge_vertices(None, fleet.n_total)
        if tol is not None:
            max_delta, wait = engine.reduce_partials(rank_delta, op="max")
            wait()
            s.done = max_delta < tol
        engine.superstep_boundary("pagerank", lambda: vars(s))

    return AlgorithmResult(
        values=engine.gather("pr"),
        timings=engine.timing_report(),
        iterations=s.iterations_run,
        counters=engine.counters.summary(),
        extra={"damping": damping},
    )
