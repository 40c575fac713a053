"""Generic vertex-state programs (the paper's Algorithm 1 as an API).

The paper's thesis is a *generalized* methodology: any iterative
vertex-state computation — "for some number of iterations:
``update(S[v], S[u])`` over the edges" (paper Alg. 1) — runs on the 2D
machinery without algorithm-specific communication code.  This module
makes that claim executable: a :class:`VertexProgram` supplies only

* how state initializes (per vertex),
* how a value travels across one edge (vectorized), and
* the reduction combining arriving values (``min``/``max``),

and :func:`run_vertex_program` drives the full stack — push or pull
kernels, dense/sparse/switching communications, active-vertex queues,
convergence detection — identically to the hand-written algorithms.

Connected components is ``VertexProgram(init=identity, along_edge=
carry, op="min")``; SSSP is ``init=inf-except-root, along_edge=value +
weight, op="min")``; "minimum reachable label within k hops",
widest-path, and similar label-correcting computations follow the same
two lines.  The test suite cross-validates programs against both the
dedicated implementations and the serial references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..kernels import scatter_reduce
from ..patterns.dense import dense_exchange
from ..patterns.sparse import propagate_active_pull, sparse_pull, sparse_push
from ..patterns.switching import SwitchPolicy
from .engine import Engine
from .result import AlgorithmResult

__all__ = ["VertexProgram", "run_vertex_program"]

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
        How a value transforms crossing one edge (e.g. identity for
        label propagation-style carries, ``value + weight`` for path
        lengths).
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
    """

    name: str
    init: Callable[[np.ndarray], np.ndarray]
    along_edge: EdgeFn
    op: str = "min"
    direction: str = "push"
    mode: str = "switch"
    use_queue: bool = True
    max_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in ("min", "max"):
            raise ValueError(
                f"vertex programs support monotone 'min'/'max', got {self.op!r}"
            )
        if self.direction not in ("push", "pull"):
            raise ValueError(f"bad direction {self.direction!r}")


def run_vertex_program(
    engine: Engine, program: VertexProgram, resume: bool = False
) -> AlgorithmResult:
    """Execute a :class:`VertexProgram` on the 2D engine.

    Returns the converged state in original vertex order.
    ``resume=True`` continues from the engine's latest attached
    checkpoint (see ``docs/ROBUSTNESS.md``); checkpoints are tagged
    ``"program:<name>"`` so different programs never cross-resume.
    """
    part, grid = engine.partition, engine.grid
    algo_tag = f"program:{program.name}"
    all_rows = [ctx.row_lids() for ctx in engine]

    st = engine.resume_from_checkpoint(algo_tag) if resume else None
    if st is None:
        engine.reset_timers()

        # ---- initialize state over the full LID space -----------------
        def init_state(ctx):
            lm = ctx.localmap
            state = ctx.alloc(program.name, np.float64)
            state[lm.row_slice] = program.init(
                part.original_gid(np.arange(lm.row_start, lm.row_stop))
            )
            state[lm.col_slice] = program.init(
                part.original_gid(np.arange(lm.col_start, lm.col_stop))
            )
            engine.charge_vertices(ctx.rank, ctx.n_total)

        engine.foreach(init_state)

        policy = SwitchPolicy(part.n_vertices, grid, mode=program.mode)
        active = list(all_rows)
        iteration = 0
        done = False
    else:
        policy = st["policy"]
        active = st["active"]
        iteration = st["iteration"]
        done = st["done"]

    while not done:
        iteration += 1
        rows_per_rank = active if program.use_queue else all_rows
        sparse_now = policy.use_sparse
        if not sparse_now:
            prev = {
                id_r: engine.ctx(ranks[0]).get(program.name)[
                    engine.ctx(ranks[0]).row_slice
                ].copy()
                for id_r, ranks in engine.row_groups()
            }

        # ---- local compute --------------------------------------------
        def local_compute(ctx):
            state = ctx.get(program.name)
            rows = rows_per_rank[ctx.rank]
            degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
            engine.charge_edges(ctx.rank, degs)
            src, dst, w = ctx.expand(rows)
            if src.size == 0:
                return np.empty(0, dtype=np.int64)
            if program.direction == "push":
                cand = program.along_edge(state[src], w)
                targets = dst
            else:
                cand = program.along_edge(state[dst], w)
                targets = src
            return scatter_reduce(state, targets, cand, program.op)

        queues = engine.map_ranks(local_compute)

        # ---- exchange --------------------------------------------------
        if sparse_now:
            exchange = sparse_push if program.direction == "push" else sparse_pull
            result = exchange(engine, program.name, queues, op=program.op)
            n_updated = result.n_updated
            if program.use_queue:
                if program.direction == "push":
                    active = result.active_row
                else:
                    active = propagate_active_pull(engine, result.active_row)
        else:
            dense_exchange(engine, program.name, program.direction, op=program.op)
            n_updated = 0
            changed_rows: dict[int, np.ndarray] = {}
            for id_r, ranks in engine.row_groups():
                ctx0 = engine.ctx(ranks[0])
                now = ctx0.get(program.name)[ctx0.row_slice]
                diff = np.flatnonzero(now != prev[id_r])
                n_updated += int(diff.size)
                changed_rows[id_r] = diff
            flags = [np.array([float(n_updated)]) for _ in range(grid.n_ranks)]
            engine.comm.allreduce(list(range(grid.n_ranks)), flags, op="max")
            if program.use_queue:
                updated = [
                    engine.ctx(r).localmap.row_offset
                    + changed_rows[engine.ctx(r).block.id_r]
                    for r in range(grid.n_ranks)
                ]
                if program.direction == "push":
                    active = updated
                else:
                    active = propagate_active_pull(engine, updated)

        policy.observe(n_updated)
        done = n_updated == 0 or (
            program.max_iterations is not None
            and iteration >= program.max_iterations
        )
        engine.superstep_boundary(
            algo_tag,
            {
                "policy": policy,
                "active": active,
                "iteration": iteration,
                "done": done,
            },
        )

    values = engine.gather(program.name)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=iteration,
        counters=engine.counters.summary(),
        extra={"program": program.name},
    )
