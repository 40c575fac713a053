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
   fashion.

Labels are *original* vertex ids so the deterministic tie-break agrees
with the serial reference exactly.  Active-vertex queues (paper
§3.4.1) restrict work to vertices whose neighborhood changed.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..patterns.complex import (
    TRIPLE_DTYPE,
    build_histogram,
    merge_histograms,
    owner_chunks,
    owner_of_vertex,
    select_mode,
)
from ..patterns.sparse import PAIR_DTYPE, propagate_active_pull

__all__ = ["label_propagation"]

_STATE = "label"
#: Relative cost of a hash-table insert vs. a simple edge op.
HASH_WORK_PER_EDGE = 4.0


def _init_labels(engine: Engine) -> None:
    part = engine.partition

    def init(ctx):
        lm = ctx.localmap
        label = ctx.alloc(_STATE, np.float64)
        label[lm.row_slice] = part.original_gid(
            np.arange(lm.row_start, lm.row_stop)
        )
        label[lm.col_slice] = part.original_gid(
            np.arange(lm.col_start, lm.col_stop)
        )
        engine.charge_vertices(ctx.rank, ctx.n_total)

    engine.foreach(init)


def _pairs(gids: np.ndarray, vals: np.ndarray) -> np.ndarray:
    buf = np.empty(gids.size, dtype=PAIR_DTYPE)
    buf["gid"] = gids
    buf["val"] = vals
    return buf


def label_propagation(
    engine: Engine,
    iterations: int = 20,
    use_queue: bool = True,
    resume: bool = False,
) -> AlgorithmResult:
    """Run up to ``iterations`` synchronous LP steps (paper: 20).

    Stops early once no label changes.  Returns labels in original
    vertex order, identical to the serial reference.  ``resume=True``
    continues from the engine's latest attached checkpoint (see
    ``docs/ROBUSTNESS.md``).
    """
    part, grid = engine.partition, engine.grid
    all_rows = [ctx.row_lids() for ctx in engine]

    st = engine.resume_from_checkpoint("lp") if resume else None
    if st is None:
        engine.reset_timers()
        _init_labels(engine)
        active = list(all_rows)
        iterations_run = 0
        done = False
    else:
        active = st["active"]
        iterations_run = st["iterations_run"]
        done = st["done"]

    while iterations_run < iterations and not done:
        iterations_run += 1
        rows_per_rank = active if use_queue else all_rows

        # ---- phase 1: local histograms over owned edges -------------
        def local_histogram(ctx):
            label = ctx.get(_STATE)
            rows = rows_per_rank[ctx.rank]
            degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
            engine.charge_edges(ctx.rank, degs, work_per_edge=HASH_WORK_PER_EDGE)
            src, dst, _ = ctx.expand(rows)
            return build_histogram(ctx.localmap.row_gid(src), label[dst])

        histograms = engine.map_ranks(local_histogram)

        # ---- phase 2: 2.5D owner exchange + mode, per row group -----
        # Personalized exchange of histogram triples to owners: routing
        # is per-rank compute (each rank's owner chunks follow from its
        # own row group), the exchanges stay sequential per group.
        def route_to_owners(ctx):
            rs, re = part.row_range(ctx.block.id_r)
            bounds = owner_chunks(rs, re, grid.R)
            tri = histograms[ctx.rank]
            owners = owner_of_vertex(tri["gid"], bounds)
            order = np.argsort(owners, kind="stable")
            tri, owners = tri[order], owners[order]
            cuts = np.searchsorted(owners, np.arange(grid.R + 1))
            engine.charge_vertices(ctx.rank, tri.size)
            return [tri[cuts[k] : cuts[k + 1]] for k in range(grid.R)]

        sends = engine.map_ranks(route_to_owners)
        received_of: list[np.ndarray | None] = [None] * grid.n_ranks
        for id_r, ranks in engine.row_groups():
            received = engine.comm.alltoallv(ranks, [sends[r] for r in ranks])
            for pos, r in enumerate(ranks):
                received_of[r] = received[pos]

        # Owner-side merge + mode selection.
        def merge_and_select(ctx):
            merged = merge_histograms(received_of[ctx.rank])
            gids, modes = select_mode(merged)
            engine.charge_vertices(ctx.rank, merged.size)
            return _pairs(gids, modes)

        finals = engine.map_ranks(merge_and_select)

        # Broadcast winners back across each row group.
        rbuf_of: list[np.ndarray | None] = [None] * grid.n_ranks
        for id_r, ranks in engine.row_groups():
            rbuf = engine.comm.allgatherv(ranks, [finals[r] for r in ranks])
            for r in ranks:
                rbuf_of[r] = rbuf

        def apply_winners(ctx):
            lm = ctx.localmap
            label = ctx.get(_STATE)
            rbuf = rbuf_of[ctx.rank]
            lids = lm.row_lid(rbuf["gid"])
            old = label[lids].copy()
            label[lids] = rbuf["val"]
            engine.charge_vertices(ctx.rank, rbuf.size)
            return np.asarray(lids[label[lids] != old], dtype=np.int64)

        changed_rows = engine.map_ranks(apply_winners)
        n_changed = 0
        for id_r, ranks in engine.row_groups():
            if ranks:
                n_changed += int(changed_rows[ranks[0]].size)

        # ---- phase 3: refresh ghosts along column groups -------------
        def build_refresh(ctx):
            lm = ctx.localmap
            gids = lm.row_gid(changed_rows[ctx.rank])
            mine = gids[lm.owns_col_gid(gids)]
            label = ctx.get(_STATE)
            engine.charge_vertices(ctx.rank, mine.size)
            return _pairs(mine, label[lm.row_lid(mine)])

        sbufs = engine.map_ranks(build_refresh)
        rbuf_of = [None] * grid.n_ranks
        for id_c, ranks in engine.col_groups():
            rbuf = engine.comm.allgatherv(ranks, [sbufs[r] for r in ranks])
            for r in ranks:
                rbuf_of[r] = rbuf

        def apply_refresh(ctx):
            lm = ctx.localmap
            label = ctx.get(_STATE)
            rbuf = rbuf_of[ctx.rank]
            label[lm.col_lid(rbuf["gid"])] = rbuf["val"]
            engine.charge_vertices(ctx.rank, rbuf.size)

        engine.foreach(apply_refresh)

        # ---- phase 4: next active queue = neighbors of changes -------
        if use_queue:
            active = propagate_active_pull(engine, changed_rows)
        done = n_changed == 0
        engine.superstep_boundary(
            "lp",
            {"active": active, "iterations_run": iterations_run, "done": done},
        )

    values = engine.gather(_STATE).astype(np.int64)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=iterations_run,
        counters=engine.counters.summary(),
        extra={"n_communities": int(np.unique(values).size)},
    )
