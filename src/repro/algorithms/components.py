"""Connected components by color propagation (paper §4, Fig. 6).

Every vertex starts labeled with its own id — the partition's
relabeled GID, the id space the ranks compute in — and labels
propagate along edges taking the minimum until a fixed point.  One host
pass after the fixpoint (:func:`component_answer`, not charged: the
paper's timed CC ends at the fixpoint) names each component by its
minimum original id, so the answer does not depend on the grid.  The
paper uses this algorithm to study its optimizations because its
"typical graph algorithmic pattern" generalizes — here literally: CC is
the :class:`~repro.core.program.VertexProgram` ``init=perm,
op="min"`` (a plain carry) run by the one label-correcting loop
(:func:`~repro.core.program.run_vertex_program`), and push/pull,
dense/sparse/switching communications and active-vertex queues are that
program's schedule fields, matching the configurations of the paper's
Fig. 6 ablation:

====================  =============================================
paper configuration    call
====================  =============================================
``Base``              ``direction="pull", mode="dense",  use_queue=False``
``+SP``               ``direction="pull", mode="sparse", use_queue=False``
``+SP+SW``            ``direction="pull", mode="switch", use_queue=False``
``+SP+SW+VQ``         ``direction="pull", mode="switch", use_queue=True``
``+All+Push``         ``direction="push", mode="switch", use_queue=True``
====================  =============================================
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..core.engine import Engine
from ..core.program import VertexProgram, run_vertex_program
from ..core.result import AlgorithmResult
from .bfs import check_count

__all__ = ["connected_components", "component_answer", "CC_VARIANTS"]

#: Paper Fig. 6 configurations, in ablation order.
CC_VARIANTS: dict[str, dict] = {
    "Base": dict(direction="pull", mode="dense", use_queue=False),
    "+SP": dict(direction="pull", mode="sparse", use_queue=False),
    "+SP+SW": dict(direction="pull", mode="switch", use_queue=False),
    "+SP+SW+VQ": dict(direction="pull", mode="switch", use_queue=True),
    "+All+Push": dict(direction="push", mode="switch", use_queue=True),
}


def connected_components(
    engine: Engine,
    direction: str = "push",
    mode: str = "switch",
    use_queue: bool = True,
    max_iterations: Optional[int] = None,
    resume: bool = False,
) -> AlgorithmResult:
    """Run color-propagation CC to convergence.

    Parameters
    ----------
    direction:
        ``"push"`` or ``"pull"`` update flavour.
    mode:
        ``"dense"``, ``"sparse"``, or ``"switch"`` communications.
    use_queue:
        Maintain active-vertex queues (paper §3.4.1) instead of
        touching every owned vertex each iteration.
    max_iterations:
        Safety bound, an integer >= 1 (anything else raises
        ``ValueError``); ``None`` runs to convergence (paper setting).
    resume:
        Continue from the engine's latest attached checkpoint instead
        of starting over (``NoCheckpointError`` when there is none);
        see ``docs/ROBUSTNESS.md``.

    Returns, in original vertex order, each vertex's component label:
    the component's minimum original id.
    """
    if max_iterations is not None:
        max_iterations = check_count(max_iterations, "max_iterations")
    program = VertexProgram(
        name="cc",
        init=lambda orig: engine.partition.perm[orig],
        op="min",
        direction=direction,
        mode=mode,
        use_queue=use_queue,
        max_iterations=max_iterations,
    )
    result = run_vertex_program(engine, program, resume=resume, tag="cc")
    values = component_answer(result.values.astype(np.int64))
    return replace(
        result,
        values=values,
        extra={"n_components": int(np.unique(values).size)},
    )


def component_answer(labels: np.ndarray) -> np.ndarray:
    """Name each label class by its minimum original id.

    ``labels`` is a converged labeling in original vertex order whose
    values are distinct vertex ids of some id space (relabeled GIDs, or
    whatever grid's GIDs a regrid carried over); vertices that share a
    value share a component.  One host pass, not charged.
    """
    n = labels.size
    rep = np.full(n, n, dtype=np.int64)
    np.minimum.at(rep, labels, np.arange(n, dtype=np.int64))
    return rep[labels]
