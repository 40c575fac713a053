"""Pointer jumping via packet swapping (paper §3.3.3, §4).

Root-finding over a forest embedded in the graph: each vertex first
instantiates a pointer along an owned edge (deterministically: its
minimum-original-id neighbor, if smaller than itself — strictly
decreasing pointers cannot form cycles, so local minima become roots),
then pointers are repeatedly doubled, ``p[v] <- p[p[v]]``, until every
vertex points at its root.

Pointer updates are not propagated along graph edges — ``p[v]`` may be
an arbitrary vertex — so the structured state exchanges don't apply.
Instead each jump is a *packet swap* (paper §3.3.3): the home rank of
``v`` (the unique rank owning ``v`` in both its row and column range)
sends a query packet to the home rank of ``p[v]``, which replies with
``p[p[v]]``; both hops ride the row-then-column 2D routing of
:func:`repro.patterns.packets.packet_swap`.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..kernels import scatter_reduce
from ..patterns.complex import allgatherv_by_rank
from ..patterns.packets import packet_swap
from ..patterns.sparse import PAIR_DTYPE

__all__ = ["pointer_jumping"]

#: Query/response packet: subject vertex, payload vertex, dest rank.
PJ_DTYPE = np.dtype([("src", np.int64), ("vert", np.int64), ("dest", np.int64)])


def _home_ranks(engine: Engine, gids: np.ndarray) -> np.ndarray:
    """Home rank of each relabeled GID: the rank owning it in both its
    row range and its column range."""
    part, grid = engine.partition, engine.grid
    id_r = np.searchsorted(part.row_offsets, gids, side="right") - 1
    id_c = np.searchsorted(part.col_offsets, gids, side="right") - 1
    return id_r * grid.R + id_c


def _initial_forest(engine: Engine) -> np.ndarray:
    """Every vertex's initial parent, as original ids: its minimum
    original-id neighbor if smaller than itself, else itself.

    Per-rank local minima of neighbor *original* ids, merged along row
    groups with the generic sparse machinery (a plain MIN reduction).
    """
    part, grid = engine.partition, engine.grid

    def local_minima(ctx):
        lm = ctx.localmap
        rows = ctx.row_lids()
        engine.charge_edges(ctx.rank, ctx.local_degrees(), cache_key="pj.full")
        ex = ctx.expand(rows, ctx.local_degrees())
        src, dst = ex.src, ex.dst
        buf = np.empty(0, dtype=PAIR_DTYPE)
        if src.size:
            best = np.full(ctx.n_total, np.iinfo(np.int64).max, dtype=np.int64)
            scatter_reduce(best, src, part.original_gid(lm.col_gid(dst)), "min")
            have = rows[best[rows] < np.iinfo(np.int64).max]
            buf = np.empty(have.size, dtype=PAIR_DTYPE)
            buf["gid"] = lm.row_gid(have)
            buf["val"] = best[have]
        return buf

    cand = engine.map_ranks(local_minima)
    parent = np.empty(part.n_vertices, dtype=np.int64)
    n_received = np.zeros(grid.n_ranks, dtype=np.int64)
    rbuf_of = allgatherv_by_rank(engine, engine.row_groups(), cand)
    for id_r, ranks in engine.row_groups():
        rbuf = rbuf_of[ranks[0]]
        rs, re = part.row_range(id_r)
        best = np.full(re - rs, np.iinfo(np.int64).max, dtype=np.int64)
        if rbuf.size:
            scatter_reduce(best, rbuf["gid"] - rs, rbuf["val"].astype(np.int64), "min")
        orig = part.original_gid(np.arange(rs, re, dtype=np.int64))
        parent[orig] = np.where(best < orig, best, orig)
        n_received[ranks] = rbuf.size
    engine.charge_vertices(None, n_received)
    return parent


def _home_tables(part, parent: np.ndarray, converged: np.ndarray):
    """Each rank's home slice — the relabeled GIDs it owns in both its
    row and its column range — with their parents (relabeled GIDs) and
    converged flags, from original-order ``parent`` (original ids) and
    ``converged``."""
    home_gids: dict[int, np.ndarray] = {}
    home_parent: dict[int, np.ndarray] = {}
    home_converged: dict[int, np.ndarray] = {}
    for blk in part.blocks:
        lm = blk.localmap
        lo, hi = max(lm.row_start, lm.col_start), min(lm.row_stop, lm.col_stop)
        gids = np.arange(lo, max(lo, hi), dtype=np.int64)
        orig = part.original_gid(gids)
        home_gids[blk.rank] = gids
        home_parent[blk.rank] = part.perm[parent[orig]]
        home_converged[blk.rank] = converged[orig]
    return home_gids, home_parent, home_converged


def _pointers(part, home_gids, home_parent, converged) -> dict:
    """The home tables as original-order vectors (the inverse of
    :func:`_home_tables`): what a checkpoint keeps."""
    parent = np.empty(part.n_vertices, dtype=np.int64)
    conv = np.zeros(part.n_vertices, dtype=bool)
    for rank, gids in home_gids.items():
        orig = part.original_gid(gids)
        parent[orig] = part.original_gid(home_parent[rank])
        conv[orig] = converged[rank]
    return {"parent": parent, "converged": conv}


def pointer_jumping(
    engine: Engine,
    max_iterations: int | None = None,
    resume: bool = False,
) -> AlgorithmResult:
    """Find the forest root of every vertex.

    Returns roots in original vertex order, equal to serially chasing
    :func:`repro.reference.serial.initial_parents` on the input graph.
    ``resume=True`` continues from the engine's latest attached
    checkpoint (see ``docs/ROBUSTNESS.md``).
    """
    part = engine.partition

    if resume:
        st = engine.resume_from_checkpoint("pj")
    else:
        engine.reset_timers()
        parent = _initial_forest(engine)
        st = {
            "parent": parent,
            "converged": parent == np.arange(part.n_vertices),
            "iterations": 0,
            "done": False,
        }
    # Home-rank authoritative parent stores (relabeled GIDs).
    home_gids, home_parent, converged = _home_tables(
        part, st.pop("parent"), st.pop("converged")
    )
    s = SimpleNamespace(**st)

    def saved():
        return {**vars(s), **_pointers(part, home_gids, home_parent, converged)}

    # ---- jump until every pointer reaches a root ----------------------
    # Hot targets (roots accumulate pointers geometrically) would make
    # per-vertex queries converge on a single home rank, so each rank
    # queries every *distinct* target once and fans the answer out to
    # all of its local pointers — the packet carries {requesting rank,
    # target, destination}, matching the paper's owner/state/direction
    # packet layout.  A vertex whose parent answers for itself is at a
    # root and stops participating.
    while not s.done:
        s.iterations += 1
        def build_queries(ctx):
            r = ctx.rank
            pending = ~converged[r]
            targets = np.unique(home_parent[r][pending])
            q = np.empty(targets.size, dtype=PJ_DTYPE)
            q["src"] = r  # requesting rank
            q["vert"] = targets
            q["dest"] = _home_ranks(engine, targets)
            engine.charge_vertices(r, int(pending.sum()) + targets.size)
            return q

        queries = engine.map_ranks(build_queries)
        arrived = packet_swap(engine, queries)

        # Responses: look up p[target], reply to the requesting rank.
        def build_responses(ctx):
            r = ctx.rank
            inbox = arrived[r]
            lookup = np.searchsorted(home_gids[r], inbox["vert"])
            resp = np.empty(inbox.size, dtype=PJ_DTYPE)
            resp["src"] = inbox["vert"]  # the queried target
            resp["vert"] = home_parent[r][lookup]
            resp["dest"] = inbox["src"]
            engine.charge_vertices(r, inbox.size)
            return resp

        responses = engine.map_ranks(build_responses)
        delivered = packet_swap(engine, responses)

        # Apply jumps; a vertex converges once its parent is a root.
        def apply_jumps(ctx):
            r = ctx.rank
            inbox = delivered[r]
            if inbox.size == 0:
                return 0
            # Sorted arrays of {queried target, its parent}.
            order = np.argsort(inbox["src"], kind="stable")
            t_sorted = inbox["src"][order]
            g_sorted = inbox["vert"][order]
            pending = ~converged[r]
            parents = home_parent[r]
            pos = np.searchsorted(t_sorted, parents[pending])
            new_vals = g_sorted[pos]
            is_root_parent = new_vals == parents[pending]
            old = parents[pending].copy()
            parents[pending] = new_vals
            conv = converged[r].copy()
            conv_idx = np.flatnonzero(pending)
            conv[conv_idx[is_root_parent]] = True
            converged[r] = conv
            engine.charge_vertices(r, inbox.size + int(pending.sum()))
            return int(np.count_nonzero(old != new_vals))

        # Global convergence check: the home slices are disjoint over
        # all ranks, so the one-word reduction spans them all.
        n_changed, wait = engine.reduce_partials(
            engine.map_ranks(apply_jumps), over="ranks"
        )
        wait()
        s.done = n_changed == 0 or (
            max_iterations is not None and s.iterations >= max_iterations
        )
        engine.superstep_boundary("pj", saved)

    # ---- sync authoritative slices across row groups, then gather ----
    engine.alloc("pj", np.float64, fill=-1.0)

    def build_final(ctx):
        r = ctx.rank
        buf = np.empty(home_gids[r].size, dtype=PAIR_DTYPE)
        buf["gid"] = home_gids[r]
        buf["val"] = home_parent[r]
        return buf

    sbufs = engine.map_ranks(build_final)
    rbuf_of = allgatherv_by_rank(engine, engine.row_groups(), sbufs)

    def apply_final(ctx):
        lm = ctx.localmap
        rbuf = rbuf_of[ctx.rank]
        ctx.get("pj")[lm.row_lid(rbuf["gid"])] = rbuf["val"]
        engine.charge_vertices(ctx.rank, rbuf.size)

    engine.foreach(apply_final)

    roots_rel = engine.gather("pj").astype(np.int64)
    values = part.original_gid(roots_rel)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=s.iterations,
        counters=engine.counters.summary(),
        extra={"n_roots": int(np.unique(values).size)},
    )
