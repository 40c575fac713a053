"""K-core decomposition (extension; a second 2.5D complex reduction).

Computes every vertex's *core number* — the largest ``k`` such that the
vertex belongs to a subgraph where all degrees are at least ``k`` — via
the distributed h-index formulation (Montresor, De Pellegrini & Miorandi):
initialize each estimate to the vertex degree, then repeatedly replace
it with the h-index of its neighbors' estimates.  Estimates decrease
monotonically and converge to the exact core numbers.

The per-vertex h-index is a *complex reduction* over the whole
neighborhood (which spans the row group), so the implementation is the
paper's 2.5D pattern (:func:`~repro.patterns.complex.complex_reduce`)
exactly as Label Propagation is: per-rank histograms of neighbor
estimates, an owner-side h-index instead of a mode, and a monotone
``min`` against the stored estimate instead of an assignment, with
active-vertex queues carrying the neighbors of changed vertices.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..patterns.complex import (
    complex_reduce,
    h_index_from_histograms,
    neighbor_histograms,
)
from ..patterns.sparse import propagate_active_pull
from .bfs import check_count

__all__ = ["core_numbers"]

_STATE = "core"


def core_numbers(
    engine: Engine, max_iterations: int | None = None
) -> AlgorithmResult:
    """Exact core numbers of every vertex, in original vertex order.

    ``max_iterations`` bounds the supersteps: ``None`` (to convergence)
    or an integer >= 1 — ``0``, a negative, a float or a bool raises
    ``ValueError`` (:func:`~repro.algorithms.bfs.check_count`).
    """
    if max_iterations is not None:
        max_iterations = check_count(max_iterations, "max_iterations")
    engine.reset_timers()

    # Estimates start at the global degrees (the fleet's structural
    # table, as in PageRank).
    fleet = engine.fleet
    engine.alloc(_STATE, np.float64)
    fleet.stacked(_STATE)[...] = fleet.cell_degrees()
    engine.charge_vertices(None, fleet.n_total)

    active = np.flatnonzero(fleet.row_mask)
    iterations = 0

    while True:
        iterations += 1
        # Monotone: estimates only decrease toward the core number.
        changed_rows, n_changed = complex_reduce(
            engine,
            _STATE,
            neighbor_histograms(engine, _STATE, active),
            h_index_from_histograms,
            combine=np.minimum,
        )
        # Next active queue = neighbors of changed vertices.
        active = propagate_active_pull(engine, changed_rows)
        engine.superstep_boundary("kcore")
        if n_changed == 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break

    values = engine.gather(_STATE).astype(np.int64)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=iterations,
        counters=engine.counters.summary(),
        extra={"max_core": int(values.max(initial=0))},
    )
