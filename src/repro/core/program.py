"""Generic vertex-state programs (the paper's Algorithm 1 as an API).

The paper's thesis is a *generalized* methodology: any iterative
vertex-state computation — "for some number of iterations:
``update(S[v], S[u])`` over the edges" (paper Alg. 1) — runs on the 2D
machinery without algorithm-specific communication code.  This module
makes that claim executable: a :class:`VertexProgram` supplies only

* how state initializes (per vertex),
* how a value travels across one edge (vectorized), and
* the reduction combining arriving values (``min``/``max``),

and :func:`run_vertex_program` is the one label-correcting superstep
loop: push or pull kernels, dense/sparse/switching communications,
active-vertex queues, convergence detection, checkpoint/resume — every
queue one rank-major array of stacked row LIDs, every rank's local
compute one pass over ``Fleet.expand``.

:func:`~repro.algorithms.connected_components` is
``VertexProgram(init=perm, op="min")`` (a plain carry from each
vertex's relabeled GID) and
:func:`~repro.algorithms.sssp` is ``init=inf-except-root,
along_edge=value + weight, op="min", work_per_edge=1.5`` — thin
wrappers over this driver (``docs/ALGORITHMS.md`` has the table);
"minimum reachable label within k hops", widest-path, and similar
label-correcting computations follow the same two lines.  Direction,
mode and queue use are a *schedule* kept apart from the algorithm:
the paper's Fig. 6 ablation (``CC_VARIANTS``) is five settings of
those three fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from ..patterns.dense import dense_exchange
from ..patterns.sparse import propagate_active_pull, sparse_pull, sparse_push
from ..patterns.switching import SwitchPolicy
from .engine import Engine
from .result import AlgorithmResult

__all__ = ["VertexProgram", "init_vertex_state", "run_vertex_program"]

#: Each supported reduction's identity (a vertex still holding it has
#: received nothing yet) and ufunc.
_OPS = {"min": (np.inf, np.minimum), "max": (-np.inf, np.maximum)}

#: Edge function: (source-side values, edge weights or None) -> values
#: delivered to the other endpoint.  Must be vectorized.
EdgeFn = Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]


@dataclass
class VertexProgram:
    """Declarative description of an iterative vertex-state algorithm.

    Attributes
    ----------
    name:
        State-array name (also used in reports).
    init:
        Per-vertex initial value as a function of *original* vertex
        ids: ``init(orig_gids) -> values`` (vectorized).
    along_edge:
        How a value transforms crossing one edge (e.g. ``value +
        weight`` for path lengths); ``None`` carries it unchanged, and
        such a program never gathers the edge weights.
    op:
        Reduction combining arriving values with the current state:
        ``"min"`` or ``"max"`` (the monotone label-correcting class).
    direction:
        ``"push"`` (owners push along out-edges) or ``"pull"``.
    mode:
        Communication flavour: ``"dense"``, ``"sparse"``, ``"switch"``.
    use_queue:
        Maintain active-vertex queues between iterations.
    max_iterations:
        Bound; ``None`` runs to convergence.
    work_per_edge:
        Relative cost of ``along_edge`` + reduce on one edge, as charged
        to the kernel model (1.0 = a plain carry; SSSP's add is 1.5).
    """

    name: str
    init: Callable[[np.ndarray], np.ndarray]
    along_edge: Optional[EdgeFn] = None
    op: str = "min"
    direction: str = "push"
    mode: str = "switch"
    use_queue: bool = True
    max_iterations: Optional[int] = None
    work_per_edge: float = 1.0

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"vertex programs support monotone 'min'/'max', got {self.op!r}"
            )
        if self.direction not in ("push", "pull"):
            raise ValueError(
                f"direction must be 'push' or 'pull', got {self.direction!r}"
            )


def init_vertex_state(
    engine: Engine, name: str, init: Callable[[np.ndarray], np.ndarray]
) -> None:
    """Allocate ``name`` on every rank as ``init(original vertex ids)``
    over the row and column windows.

    A MIN / MAX / mode fixpoint over values derived from original ids
    is independent of the partition's relabeling.  CC instead starts
    from the relabeled GID (``init`` maps through ``partition.perm``):
    its labels cross a regrid untranslated, since min-propagation needs
    only distinct initial labels whose order never changes mid-run, and
    its answer pass makes the output grid-independent
    (docs/ROBUSTNESS.md, "Exactness").
    """
    part, fleet = engine.partition, engine.fleet
    engine.alloc(name, np.float64)
    gids = np.arange(part.n_vertices, dtype=np.int64)
    fleet.fill_windows(fleet.stacked(name), init(part.original_gid(gids)))
    engine.charge_vertices(None, fleet.n_total)


def run_vertex_program(
    engine: Engine,
    program: VertexProgram,
    resume: bool = False,
    tag: Optional[str] = None,
) -> AlgorithmResult:
    """Execute a :class:`VertexProgram` on the 2D engine.

    Returns the converged state in original vertex order.
    ``resume=True`` continues from the engine's latest attached
    checkpoint (see ``docs/ROBUSTNESS.md``); checkpoints are tagged
    ``tag`` (default ``"program:<name>"``) so different programs never
    cross-resume.
    """
    part, grid, fleet = engine.partition, engine.grid, engine.fleet
    name, op, push = program.name, program.op, program.direction == "push"
    algo_tag = f"program:{name}" if tag is None else tag
    if part.n_vertices == 0:  # an empty graph: an empty answer, no modeled time
        engine.reset_timers()
        return AlgorithmResult(
            values=np.empty(0),
            timings=engine.timing_report(),
            iterations=0,
            counters=engine.counters.summary(),
            extra={"program": name},
        )

    # Every queue is one rank-major array of stacked row LIDs.
    all_rows = np.flatnonzero(fleet.row_mask)
    policy = SwitchPolicy(part.n_vertices, grid, mode=program.mode)
    if resume:
        s = SimpleNamespace(**engine.resume_from_checkpoint(algo_tag))
        s.active = fleet.decode_queue(s.active)
        policy.use_sparse = vars(s).pop("use_sparse")
    else:
        engine.reset_timers()
        init_vertex_state(engine, name, program.init)
        # A vertex still at the op's identity has nothing to send, so a
        # push starts from the others (every vertex for CC, the root
        # for SSSP); a pull cannot know yet whose neighbors hold a
        # value and starts from every row.
        s = SimpleNamespace(active=all_rows, iteration=0, done=False)
        if push:
            s.active = all_rows[fleet.stacked(name)[all_rows] != _OPS[op][0]]

    def saved():
        active = fleet.encode_queue(s.active)
        return {**vars(s), "active": active, "use_sparse": policy.use_sparse}

    while not s.done:
        s.iteration += 1
        rows = s.active if program.use_queue else all_rows

        # ---- local compute: every rank's queue in one stacked pass -----
        # Each edge reads its source as the superstep began: a rank's
        # edges span several expansion slices, and on a diagonal block
        # its row and column windows share LIDs, so an earlier slice
        # may already have written a later slice's source.
        state = fleet.stacked(name)
        before = state.copy()
        degrees = fleet.row_degrees(rows)
        engine.charge_edges(
            None, degrees, work_per_edge=program.work_per_edge,
            segments=fleet.counts(rows),
        )
        for _, ex in fleet.expand(rows, degrees):
            to, frm = (ex.dst, ex.src) if push else (ex.src, ex.dst)
            vals = before[frm]
            if program.along_edge is not None:
                vals = program.along_edge(vals, ex.weights)
            _OPS[op][1].at(state, to, vals)

        # ---- exchange --------------------------------------------------
        if policy.use_sparse:
            exchange = sparse_push if push else sparse_pull
            result = exchange(engine, name, np.flatnonzero(state != before), op=op)
            n_updated = result.n_updated
            rows = result.rows
        else:
            # Convergence check: the ranks' update counts over the
            # windows the reduce stage made final (a push's column
            # windows, a pull's row windows: every row that moved this
            # superstep, local or not), riding the Broadcasts.
            def changed(exchanged):
                nonlocal rows
                moved = exchanged != before
                if push:
                    return fleet.window_counts(moved, "col")
                rows = np.flatnonzero(fleet.row_mask & moved)
                return fleet.counts(rows)

            n_updated = int(dense_exchange(engine, name, program.direction, op, changed))
            if push:  # the row windows are final after the Broadcasts
                rows = np.flatnonzero(fleet.row_mask & (state != before))
        if program.use_queue:
            s.active = rows if push else propagate_active_pull(engine, rows)

        policy.observe(n_updated)
        s.done = n_updated == 0 or (
            program.max_iterations is not None
            and s.iteration >= program.max_iterations
        )
        engine.superstep_boundary(algo_tag, saved)

    return AlgorithmResult(
        values=engine.gather(name),
        timings=engine.timing_report(),
        iterations=s.iteration,
        counters=engine.counters.summary(),
        extra={"program": name},
    )
