"""Label Propagation community detection via 2.5D processing
(paper §3.3.3 "2.5D Processing" and §4).

Synchronous label propagation: every vertex adopts the most frequent
label among its neighbors each iteration (ties to the smallest label;
isolated vertices keep their own).  The mode is a *complex reduction* —
too expensive for the generic sparse pattern — so the paper reduces
hierarchically:

1. per-rank label histograms over locally-owned edges (GPU hash
   tables; vectorized run-length triples here — see
   :mod:`repro.patterns.complex`);
2. histograms routed to per-chunk owner ranks inside each row group
   (personalized exchange, one-histogram total volume);
3. owners merge, select modes, and the winners are broadcast back
   across the row group, then to column groups in the standard
   fashion (steps 2-3 are
   :func:`~repro.patterns.complex.complex_reduce`).

Labels are *original* vertex ids so the deterministic tie-break agrees
with the serial reference exactly.  Active-vertex queues (paper
§3.4.1) restrict work to vertices whose neighborhood changed.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..core.engine import Engine
from ..core.program import init_vertex_state
from ..core.result import AlgorithmResult
from ..patterns.complex import complex_reduce, neighbor_histograms, select_mode
from ..patterns.sparse import propagate_active_pull
from .bfs import check_count

__all__ = ["label_propagation"]

_STATE = "label"


def label_propagation(
    engine: Engine,
    iterations: int = 20,
    resume: bool = False,
) -> AlgorithmResult:
    """Run up to ``iterations`` synchronous LP steps (paper: 20).

    Stops early once no label changes.  ``iterations`` is an integer
    >= 1: ``0``, a negative, a float or a bool raises ``ValueError``
    (:func:`~repro.algorithms.bfs.check_count`).  Each step expands only
    the active rows — the neighbors of the previous step's changes.
    Returns labels in original vertex order, identical to the serial
    reference.  ``resume=True`` continues from the engine's latest
    attached checkpoint (see ``docs/ROBUSTNESS.md``).
    """
    iterations = check_count(iterations, "iterations")
    if resume:
        s = SimpleNamespace(**engine.resume_from_checkpoint("lp"))
        s.active = engine.fleet.decode_queue(s.active)
    else:
        engine.reset_timers()
        init_vertex_state(engine, _STATE, lambda gids: gids)
        s = SimpleNamespace(
            active=np.flatnonzero(engine.fleet.row_mask), iterations_run=0, done=False
        )

    def saved():
        return {**vars(s), "active": engine.fleet.encode_queue(s.active)}

    while s.iterations_run < iterations and not s.done:
        s.iterations_run += 1
        # Histograms over owned edges -> owners select each vertex's
        # mode -> winners assigned, ghosts refreshed.
        changed_rows, n_changed = complex_reduce(
            engine, _STATE, neighbor_histograms(engine, _STATE, s.active), select_mode
        )
        # Next active queue = neighbors of changes.
        s.active = propagate_active_pull(engine, changed_rows)
        s.done = n_changed == 0
        engine.superstep_boundary("lp", saved)

    values = engine.gather(_STATE).astype(np.int64)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=s.iterations_run,
        counters=engine.counters.summary(),
        extra={"n_communities": int(np.unique(values).size)},
    )
