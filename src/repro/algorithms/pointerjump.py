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
from ..kernels import csr_pull, scatter_reduce
from ..patterns.complex import allgatherv_groups
from ..patterns.packets import packet_swap
from ..patterns.sparse import PAIR_DTYPE
from .bfs import check_count

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

    Every rank's local minima of neighbor *original* ids — one MIN
    ``csr_pull`` over the fleet — gathered along row groups in one
    AllGatherv stage and merged per group (a plain MIN reduction).
    """
    part, fleet = engine.partition, engine.fleet
    row_groups = list(engine.row_groups())
    no_edge = np.iinfo(np.int64).max

    degrees, rows_per_rank = fleet.full_queue()
    engine.charge_edges(None, degrees, segments=rows_per_rank, cache_key="pj.full")
    # One MIN pull over every rank's block of the neighbors' original
    # ids (exact in float64); a row without a local edge stays inf.
    orig = np.zeros(fleet.size)
    fleet.fill_windows(orig, part.original_gid(np.arange(part.n_vertices)).astype(float))
    best = csr_pull(fleet.csr(), orig, "min")
    rows = np.flatnonzero(fleet.row_mask)
    have = rows[best[rows] < np.inf]
    counts = fleet.counts(have)
    cand = np.empty(have.size, dtype=PAIR_DTYPE)
    cand["gid"] = have + fleet.row_gid_shift[fleet.ranks(counts)]
    cand["val"] = best[have]

    parent = np.empty(part.n_vertices, dtype=np.int64)
    rbufs, n_received = allgatherv_groups(engine, row_groups, cand, counts)
    for (id_r, _), rbuf in zip(row_groups, rbufs):
        rs, re = part.row_range(id_r)
        group_best = np.full(re - rs, no_edge, dtype=np.int64)
        if rbuf.size:
            scatter_reduce(
                group_best, rbuf["gid"] - rs, rbuf["val"].astype(np.int64), "min"
            )
        orig = part.original_gid(np.arange(rs, re, dtype=np.int64))
        parent[orig] = np.where(group_best < orig, group_best, orig)
    engine.charge_vertices(None, n_received)
    return parent


def _home_tables(part, parent: np.ndarray, converged: np.ndarray):
    """Every vertex's home entry — its parent (a relabeled GID) and
    converged flag — indexed by relabeled GID, from original-order
    ``parent`` (original ids) and ``converged``.

    A rank's home slice is the GIDs it owns in both its row and its
    column range; the slices partition the GIDs and follow each other
    in rank order, so the stacked home tables are the GID order itself.
    """
    orig = part.original_gid(np.arange(part.n_vertices, dtype=np.int64))
    return part.perm[parent[orig]], converged[orig]


def _pointers(part, home_parent: np.ndarray, converged: np.ndarray) -> dict:
    """The home tables as original-order vectors (the inverse of
    :func:`_home_tables`): what a checkpoint keeps."""
    orig = part.original_gid(np.arange(part.n_vertices, dtype=np.int64))
    parent = np.empty(part.n_vertices, dtype=np.int64)
    conv = np.empty(part.n_vertices, dtype=bool)
    parent[orig] = part.original_gid(home_parent)
    conv[orig] = converged
    return {"parent": parent, "converged": conv}


def pointer_jumping(
    engine: Engine,
    max_iterations: int | None = None,
    resume: bool = False,
) -> AlgorithmResult:
    """Find the forest root of every vertex.

    Returns roots in original vertex order, equal to serially chasing
    :func:`repro.reference.serial.initial_parents` on the input graph.
    ``max_iterations`` bounds the jumps: ``None`` (until every pointer
    reaches its root) or an integer >= 1 — ``0``, a negative, a float or
    a bool raises ``ValueError`` (:func:`~repro.algorithms.bfs.check_count`).
    ``resume=True`` continues from the engine's latest attached
    checkpoint (see ``docs/ROBUSTNESS.md``).
    """
    if max_iterations is not None:
        max_iterations = check_count(max_iterations, "max_iterations")
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
    # Home-rank authoritative parent stores (relabeled GIDs), stacked.
    home_parent, converged = _home_tables(part, st.pop("parent"), st.pop("converged"))
    n, p = part.n_vertices, engine.n_ranks
    home_rank = _home_ranks(engine, np.arange(n, dtype=np.int64))
    s = SimpleNamespace(**st)

    def saved():
        return {**vars(s), **_pointers(part, home_parent, converged)}

    # ---- jump until every pointer reaches a root ----------------------
    # Hot targets (roots accumulate pointers geometrically) would make
    # per-vertex queries converge on a single home rank, so each rank
    # queries every *distinct* target once and fans the answer out to
    # all of its local pointers — the packet carries {requesting rank,
    # target, destination}, matching the paper's owner/state/direction
    # packet layout.  A vertex whose parent answers for itself is at a
    # root and stops participating.  A (rank, target) pair is the key
    # ``rank * n + target``, so one sort serves every rank.
    while not s.done:
        s.iterations += 1
        pending = np.flatnonzero(~converged)
        n_pending = np.bincount(home_rank[pending], minlength=p)
        asks = home_rank[pending] * n + home_parent[pending]
        keys = np.unique(asks)
        queries = np.empty(keys.size, dtype=PJ_DTYPE)
        queries["src"], queries["vert"] = np.divmod(keys, n)  # requesting rank, target
        queries["dest"] = _home_ranks(engine, queries["vert"])
        counts = np.bincount(queries["src"], minlength=p)
        engine.charge_vertices(None, n_pending + counts)
        arrived, counts = packet_swap(engine, queries, counts)

        # Responses: look up p[target], reply to the requesting rank.
        responses = np.empty(arrived.size, dtype=PJ_DTYPE)
        responses["src"] = arrived["vert"]  # the queried target
        responses["vert"] = home_parent[arrived["vert"]]
        responses["dest"] = arrived["src"]
        engine.charge_vertices(None, counts)
        delivered, counts = packet_swap(engine, responses, counts)

        # Apply jumps; a vertex converges once its parent is a root.  A
        # rank with nothing delivered has nothing pending and launches
        # no kernel.
        answered = engine.fleet.ranks(counts) * n + delivered["src"]
        order = np.argsort(answered)
        new_vals = delivered["vert"][order][np.searchsorted(answered[order], asks)]
        old = home_parent[pending]
        home_parent[pending] = new_vals
        converged[pending[new_vals == old]] = True
        engine.charge_vertices(None, counts + n_pending, launches=counts > 0)

        # Global convergence check: the home slices are disjoint over
        # all ranks, so the one-word reduction spans them all.
        n_changed, wait = engine.reduce_partials(
            np.bincount(home_rank[pending[new_vals != old]], minlength=p), over="ranks"
        )
        wait()
        s.done = n_changed == 0 or (
            max_iterations is not None and s.iterations >= max_iterations
        )
        engine.superstep_boundary("pj", saved)

    # ---- sync authoritative slices across row groups, then gather ----
    engine.alloc("pj", np.float64, fill=-1.0)
    fleet = engine.fleet
    row_groups = list(engine.row_groups())
    home = np.empty(n, dtype=PAIR_DTYPE)
    home["gid"] = np.arange(n)
    home["val"] = home_parent
    rbufs, sizes = allgatherv_groups(
        engine, row_groups, home, np.bincount(home_rank, minlength=p)
    )
    pj = fleet.stacked("pj")
    for (_, members), rbuf in zip(row_groups, rbufs):
        pj[(rbuf["gid"] - fleet.row_gid_shift[members, None]).ravel()] = np.tile(
            rbuf["val"], len(members)
        )
    engine.charge_vertices(None, sizes)

    roots_rel = engine.gather("pj").astype(np.int64)
    values = part.original_gid(roots_rel)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=s.iterations,
        counters=engine.counters.summary(),
        extra={"n_roots": int(np.unique(values).size)},
    )
