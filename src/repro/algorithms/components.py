"""Connected components by color propagation (paper §4, Fig. 6).

Every vertex starts labeled with its own id; labels propagate along
edges taking the minimum until a fixed point.  The paper uses this
algorithm to study its optimizations because its "typical graph
algorithmic pattern" generalizes: push and pull variants, dense and
sparse communications, dense-to-sparse switching, and active-vertex
queues are all implemented here behind keyword arguments, matching the
configurations of the paper's Fig. 6 ablation:

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

from typing import Optional

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..kernels import scatter_reduce
from ..patterns.dense import dense_exchange
from ..patterns.sparse import propagate_active_pull, sparse_pull, sparse_push
from ..patterns.switching import SwitchPolicy

__all__ = ["connected_components", "CC_VARIANTS"]

#: Paper Fig. 6 configurations, in ablation order.
CC_VARIANTS: dict[str, dict] = {
    "Base": dict(direction="pull", mode="dense", use_queue=False),
    "+SP": dict(direction="pull", mode="sparse", use_queue=False),
    "+SP+SW": dict(direction="pull", mode="switch", use_queue=False),
    "+SP+SW+VQ": dict(direction="pull", mode="switch", use_queue=True),
    "+All+Push": dict(direction="push", mode="switch", use_queue=True),
}

_STATE = "cc"


def _init_labels(engine: Engine) -> None:
    # Labels are *original* vertex ids (not relabeled GIDs) so the MIN
    # fixpoint — each component's smallest original id — is independent
    # of the partition's relabeling; a run migrated onto a different
    # grid mid-flight replays bit-identically (docs/ROBUSTNESS.md).
    part = engine.partition

    def init(ctx):
        lm = ctx.localmap
        state = ctx.alloc(_STATE, np.float64)
        state[lm.row_slice] = part.original_gid(
            np.arange(lm.row_start, lm.row_stop)
        )
        state[lm.col_slice] = part.original_gid(
            np.arange(lm.col_start, lm.col_stop)
        )
        engine.charge_vertices(ctx.rank, ctx.n_total)

    engine.foreach(init)


def _compute_push(engine: Engine, rows_per_rank) -> list[np.ndarray]:
    """Local push kernels: labels flow src -> ghost neighbors.

    Returns the per-rank queues of changed column-vertex LIDs.
    """

    def push(ctx):
        rows = rows_per_rank[ctx.rank]
        state = ctx.get(_STATE)
        degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
        engine.charge_edges(ctx.rank, degs)
        src, dst, _ = ctx.expand(rows)
        if dst.size == 0:
            return np.empty(0, dtype=np.int64)
        return scatter_reduce(state, dst, state[src], "min")

    return engine.map_ranks(push)


def _compute_pull(engine: Engine, rows_per_rank) -> list[np.ndarray]:
    """Local pull kernels: each owned vertex gathers its neighbors' min.

    Returns the per-rank queues of changed row-vertex LIDs.
    """

    def pull(ctx):
        rows = rows_per_rank[ctx.rank]
        state = ctx.get(_STATE)
        degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
        engine.charge_edges(ctx.rank, degs)
        src, dst, _ = ctx.expand(rows)
        if src.size == 0:
            return np.empty(0, dtype=np.int64)
        return scatter_reduce(state, src, state[dst], "min")

    return engine.map_ranks(pull)


def connected_components(
    engine: Engine,
    direction: str = "push",
    mode: str = "switch",
    use_queue: bool = True,
    max_iterations: Optional[int] = None,
    switch_threshold_factor: float = 1.0,
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
        Safety bound; ``None`` runs to convergence (paper setting).
    switch_threshold_factor:
        Scales the ``N / max(R, C)`` dense-to-sparse cutoff (1.0 =
        paper setting; exposed for the ablation bench).
    resume:
        Continue from the engine's latest attached checkpoint instead
        of starting over (falls back to a fresh run when there is
        none); see ``docs/ROBUSTNESS.md``.

    Returns component labels (original GIDs of the winning
    representatives) in original vertex order.
    """
    if direction not in ("push", "pull"):
        raise ValueError(f"direction must be 'push' or 'pull', got {direction!r}")
    part, grid = engine.partition, engine.grid
    all_rows = [ctx.row_lids() for ctx in engine]

    st = engine.resume_from_checkpoint("cc") if resume else None
    if st is None:
        engine.reset_timers()
        _init_labels(engine)
        policy = SwitchPolicy(
            part.n_vertices,
            grid,
            mode=mode,
            threshold_factor=switch_threshold_factor,
        )
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
        rows = active if use_queue else all_rows
        sparse_now = policy.use_sparse
        if not sparse_now:
            # Snapshot consistent row state before compute so the
            # update count sees local changes too.
            prev = {
                id_r: engine.ctx(ranks[0]).get(_STATE)[
                    engine.ctx(ranks[0]).row_slice
                ].copy()
                for id_r, ranks in engine.row_groups()
            }
        if direction == "push":
            queues = _compute_push(engine, rows)
        else:
            queues = _compute_pull(engine, rows)

        if sparse_now:
            exchange = sparse_push if direction == "push" else sparse_pull
            result = exchange(engine, _STATE, queues, op="min")
            n_updated = result.n_updated
            if use_queue:
                if direction == "push":
                    active = result.active_row
                else:
                    active = propagate_active_pull(engine, result.active_row)
        else:
            dense_exchange(engine, _STATE, direction, op="min")
            n_updated = 0
            changed_rows: dict[int, np.ndarray] = {}
            for id_r, ranks in engine.row_groups():
                now = engine.ctx(ranks[0]).get(_STATE)[engine.ctx(ranks[0]).row_slice]
                diff = np.flatnonzero(now != prev[id_r])
                n_updated += int(diff.size)
                changed_rows[id_r] = diff
            # Convergence check: a 1-word AllReduce over all ranks, as a
            # dense iteration has no other way to learn the update count.
            # No rank consumes the reduced value locally, so an
            # overlapped engine issues it split-phase and hides the
            # active-queue rebuild below behind it.
            flags = [np.array([float(n_updated)]) for _ in range(grid.n_ranks)]
            flags_handle = None
            if engine.overlap:
                flags_handle = engine.comm.start_allreduce(
                    list(range(grid.n_ranks)), flags, op="max"
                )
            else:
                engine.comm.allreduce(list(range(grid.n_ranks)), flags, op="max")
            if use_queue:
                if direction == "push":
                    active = [
                        engine.ctx(r).localmap.row_offset + changed_rows[engine.ctx(r).block.id_r]
                        for r in range(grid.n_ranks)
                    ]
                else:
                    updated = [
                        engine.ctx(r).localmap.row_offset
                        + changed_rows[engine.ctx(r).block.id_r]
                        for r in range(grid.n_ranks)
                    ]
                    active = propagate_active_pull(engine, updated)
            if flags_handle is not None:
                engine.comm.wait(flags_handle)

        policy.observe(n_updated)
        done = n_updated == 0 or (
            max_iterations is not None and iteration >= max_iterations
        )
        engine.superstep_boundary(
            "cc",
            {
                "policy": policy,
                "active": active,
                "iteration": iteration,
                "done": done,
            },
        )

    values = engine.gather(_STATE).astype(np.int64)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=iteration,
        counters=engine.counters.summary(),
        extra={"n_components": int(np.unique(values).size)},
    )
