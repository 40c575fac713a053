"""1D and 1.5D distributions on the engine's 1×p grid (paper §1-2 background).

The classic multi-node graph distribution gives each rank a contiguous
block of vertices *with their full adjacency rows*; non-owned targets
are ghosts, and ghost updates move in an all-to-all exchange — the
O(p^2)-message behaviour the paper's 2D layout is designed to avoid.
That layout needs no engine of its own: on ``Grid2D(R=1, C=p)`` every
rank's column window is the whole vertex range, so its 2D block *is*
its 1D share (the same striped relabeling, row windows and rows) and
its LID space is the relabeled GID space (``N_T = n``).
:func:`layout_1d` derives the ghost directory and the owner→subscriber
lists from the blocks; :func:`cc_1d` runs color-propagation CC over
them on the engine's clocks, communicator and counters.

Between 1D and 2D sits the "1.5D" family [PowerGraph-style, paper
ref. 11]: vertices above a degree threshold (*hubs*) are shared by
every rank — their state replicated and kept consistent with one MIN
AllReduce per iteration, their (huge) adjacency lists split implicitly
across the ranks owning the opposite endpoints.  This removes the
hub-induced ghost blow-up that cripples 1D layouts on power-law graphs,
at the cost of an O(p)-wide replicated state array.  :func:`cc_15d`
relaxes symmetrically over the non-hub owned rows (hub cells are read
and written in place, so hub adjacency is never communicated), keeps
hub-hub edges with the hub's 1D owner, and runs the 1D exchange over
the hub-free ghost sets.

Both charge like a dedicated 1D engine: an edge kernel is
``costmodel.kernel_time(n_edges=...)`` (no Manhattan schedule), and a
per-vertex kernel over the whole local state covers the rank's 1D
local size — owned vertices, ghosts and hubs — not ``N_T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..algorithms.bfs import check_count
from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..graph.csr import Graph
from ..kernels import scatter_reduce
from ..patterns.sparse import _pairs
from ..queueing.frontier import expand_block

__all__ = ["OneDLayout", "layout_1d", "cc_1d", "cc_15d", "default_hub_threshold"]


def default_hub_threshold(graph: Graph, n_ranks: int) -> int:
    """Degree above which a vertex is shared.

    Hubs are vertices whose ghost fan-out would touch a large fraction
    of the ranks anyway; sharing starts paying off around a handful of
    times the average degree, scaled up for small rank counts.
    ``n_ranks`` is an integer >= 1 (``ValueError`` otherwise).
    """
    n_ranks = check_count(n_ranks, "n_ranks")
    avg = max(graph.n_edges / max(graph.n_vertices, 1), 1.0)
    return int(max(8 * avg, 2 * n_ranks))


@dataclass
class OneDLayout:
    """The 1D (or 1.5D) layout of a 1×p engine, in relabeled GIDs.

    ``subscriptions[o][r]`` holds the GIDs owner ``o`` refreshes on
    subscriber ``r``: the part of ``ghosts[r]`` inside ``o``'s window.
    """

    offsets: np.ndarray  # p + 1 boundaries of the ranks' row windows
    rows: list[np.ndarray]  # per rank: owned rows (non-hub in 1.5D)
    ghosts: list[np.ndarray]  # per rank: sorted ghost GIDs (hub-free in 1.5D)
    subscriptions: list[list[np.ndarray]]
    hubs: np.ndarray  # sorted hub GIDs (none in 1D)
    hub_edges: list[tuple[np.ndarray, np.ndarray]]  # per rank: its hubs' hub-hub edges

    def n_local(self, rank: int) -> int:
        """The rank's local state in a 1D engine: rows, ghosts, hubs."""
        return self.rows[rank].size + self.ghosts[rank].size + self.hubs.size

    def owned(self, rank: int, gids: np.ndarray) -> np.ndarray:
        """Mask: which of ``gids`` lie in the rank's row window."""
        return (gids >= self.offsets[rank]) & (gids < self.offsets[rank + 1])


def layout_1d(engine: Engine, hub_threshold: Optional[int] = None) -> OneDLayout:
    """Derive the 1D layout from a 1×p engine's blocks; with a
    ``hub_threshold``, the 1.5D layout whose hubs are the vertices of
    higher degree (``None``: no hubs; else an integer >= 0, or
    ``ValueError``)."""
    if hub_threshold is not None:
        hub_threshold = check_count(hub_threshold, "hub_threshold", minimum=0)
    if engine.grid.R != 1:
        raise ValueError(
            f"the 1D layout needs a 1xp grid, Grid2D(R=1, C=p); got "
            f"R={engine.grid.R}, C={engine.grid.C}"
        )
    part = engine.partition
    offsets = part.row_offsets
    degrees = np.concatenate([blk.local_row_degrees() for blk in part.blocks])
    is_hub = np.zeros(part.n_vertices, dtype=bool)
    if hub_threshold is not None:
        is_hub = degrees > hub_threshold
    rows, ghosts, by_owner, hub_edges = [], [], [], []
    for r, blk in enumerate(part.blocks):
        start, stop = offsets[r], offsets[r + 1]
        window = np.arange(start, stop, dtype=np.int64)
        src = np.repeat(window, blk.local_row_degrees())
        dst = blk.indices.astype(np.int64) - blk.lid_base
        plain = ~is_hub[src] & ~is_hub[dst]
        ghost = np.unique(dst[plain & ((dst < start) | (dst >= stop))])
        bounds = np.searchsorted(ghost, offsets)
        pairs = is_hub[src] & is_hub[dst]
        rows.append(window[~is_hub[window]])
        ghosts.append(ghost)
        by_owner.append([ghost[a:b] for a, b in zip(bounds[:-1], bounds[1:])])
        hub_edges.append((src[pairs], dst[pairs]))
    return OneDLayout(
        offsets=offsets,
        rows=rows,
        ghosts=ghosts,
        subscriptions=[list(subs) for subs in zip(*by_owner)],
        hubs=np.flatnonzero(is_hub),
        hub_edges=hub_edges,
    )


# ----------------------------------------------------------------------
# helpers shared by both algorithms
# ----------------------------------------------------------------------
def _to_owners(layout: OneDLayout, gids: np.ndarray, vals: np.ndarray) -> list:
    """One all-to-all send row: sorted ``gids`` (and their ``vals``)
    split by owner."""
    return np.split(_pairs(gids, vals), np.searchsorted(gids, layout.offsets[1:-1]))


def _charge_edges(engine: Engine, rank: int, n_edges: int) -> None:
    engine.clocks.add_compute(rank, engine.costmodel.kernel_time(n_edges=n_edges))


def _init_labels(engine: Engine, layout: OneDLayout) -> list[np.ndarray]:
    """Every cell labelled by its GID, charged over the 1D local size."""
    states = engine.alloc("cc")
    for r, state in enumerate(states):
        state[:] = np.arange(state.size)
        engine.charge_vertices(r, layout.n_local(r))
    return states


def _share_hubs(engine: Engine, states: list[np.ndarray], hubs: np.ndarray) -> None:
    """The 1.5D hub MIN AllReduce: each rank's cells at the hub GIDs,
    in hub order, reduced on a gathered copy and written back."""
    cells = [state[hubs] for state in states]
    engine.comm.allreduce(list(range(engine.n_ranks)), cells, op="min")
    for state, shared in zip(states, cells):
        state[hubs] = shared


def _any_changed(engine: Engine, n_changed) -> bool:
    """The reduction of the ranks' row-window change counts closing an
    iteration: on a 1×p grid, the all-rank AllReduce."""
    total, wait = engine.reduce_partials(n_changed)
    wait()
    return total != 0


def _result(
    engine: Engine, layout: OneDLayout, iterations: int, **extra
) -> AlgorithmResult:
    labels = engine.gather("cc").astype(np.int64)
    return AlgorithmResult(
        values=engine.partition.original_gid(labels),
        timings=engine.timing_report(),
        iterations=iterations,
        counters=engine.counters.summary(),
        extra={"n_ghosts": sum(g.size for g in layout.ghosts), **extra},
    )


# ----------------------------------------------------------------------
# algorithms
# ----------------------------------------------------------------------
def cc_1d(engine: Engine, max_iterations: Optional[int] = None) -> AlgorithmResult:
    """Color-propagation CC over the 1D layout (push, sparse).

    Per iteration: each rank relaxes its active rows, pushes changed
    ghosts to their owners (all-to-all), and the owners MIN-reduce them
    and push every owned change to its subscribers (second all-to-all).
    ``max_iterations`` bounds the iterations: ``None`` (to convergence)
    or an integer >= 1 (``ValueError`` otherwise).
    """
    if max_iterations is not None:
        max_iterations = check_count(max_iterations, "max_iterations")
    engine.reset_timers()
    layout = layout_1d(engine)
    ranks = list(range(engine.n_ranks))
    states = _init_labels(engine, layout)
    active = list(layout.rows)
    iterations = 0
    while True:
        iterations += 1
        local, send = [], []
        for r, (blk, state) in enumerate(zip(engine.partition.blocks, states)):
            ex = expand_block(blk, active[r])
            _charge_edges(engine, r, ex.dst.size)
            changed = scatter_reduce(state, ex.dst, state[ex.src], "min")
            owned = layout.owned(r, changed)
            local.append(changed[owned])
            ghosts = changed[~owned]
            send.append(_to_owners(layout, ghosts, state[ghosts]))
            engine.charge_vertices(r, ghosts.size)
        received = engine.comm.alltoallv(ranks, send)
        n_changed = np.zeros(engine.n_ranks)
        send = []
        for r, (state, rbuf) in enumerate(zip(states, received)):
            remote = scatter_reduce(state, rbuf["gid"], rbuf["val"], "min")
            n_changed[r] = remote.size + local[r].size
            engine.charge_vertices(r, rbuf.size)
            # Owners whose value changed (locally or remotely) are
            # active, and their subscribers need the new value.
            changed = active[r] = np.union1d(remote, local[r])
            gids = [subs[np.isin(subs, changed)] for subs in layout.subscriptions[r]]
            send.append([_pairs(g, state[g]) for g in gids])
        received = engine.comm.alltoallv(ranks, send)
        for r, (state, rbuf) in enumerate(zip(states, received)):
            state[rbuf["gid"]] = rbuf["val"]
            engine.charge_vertices(r, rbuf.size)
        if not _any_changed(engine, n_changed):
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
    return _result(engine, layout, iterations)


def cc_15d(
    engine: Engine,
    hub_threshold: Optional[int] = None,
    max_iterations: Optional[int] = None,
) -> AlgorithmResult:
    """Color-propagation CC on the 1.5D layout (hubs: degree above
    ``hub_threshold``, an integer >= 0, default
    :func:`default_hub_threshold`; ``max_iterations`` as :func:`cc_1d`).

    Per iteration: each rank relaxes its non-hub rows and its hub-hub
    edges both ways, one MIN AllReduce shares the hub cells, and the
    1D exchange (every ghost to its owner, every owned subscription
    back) runs over the hub-free ghost sets.
    """
    if max_iterations is not None:
        max_iterations = check_count(max_iterations, "max_iterations")
    engine.reset_timers()
    if hub_threshold is None:
        hub_threshold = default_hub_threshold(engine.graph, engine.n_ranks)
    layout = layout_1d(engine, hub_threshold)
    ranks, hubs = list(range(engine.n_ranks)), layout.hubs
    states = _init_labels(engine, layout)
    iterations = 0
    while True:
        iterations += 1
        n_changed = np.zeros(engine.n_ranks)
        hub_before = states[0][hubs]
        for r, (blk, state) in enumerate(zip(engine.partition.blocks, states)):
            own = layout.rows[r]
            ex = expand_block(blk, own)
            src, dst = ex.src, ex.dst
            hub_src, hub_dst = layout.hub_edges[r]
            _charge_edges(engine, r, 2 * src.size + 2 * hub_src.size)
            before_own = state[own]
            # symmetric relaxation: labels flow both directions, so hub
            # adjacency is covered by the reverse edges here
            scatter_reduce(state, dst, state[src], "min")
            scatter_reduce(state, src, state[dst], "min")
            scatter_reduce(state, hub_dst, state[hub_src], "min")
            scatter_reduce(state, hub_src, state[hub_dst], "min")
            n_changed[r] = np.count_nonzero(state[own] < before_own)
        if hubs.size:
            _share_hubs(engine, states, hubs)
            # a changed hub counts on the rank whose window holds it
            n_changed += np.histogram(hubs[states[0][hubs] < hub_before], layout.offsets)[0]

        engine.charge_vertices(None, np.array([g.size for g in layout.ghosts]))
        send = [_to_owners(layout, g, state[g]) for state, g in zip(states, layout.ghosts)]
        received = engine.comm.alltoallv(ranks, send)
        for r, (state, rbuf) in enumerate(zip(states, received)):
            n_changed[r] += scatter_reduce(state, rbuf["gid"], rbuf["val"], "min").size
            engine.charge_vertices(r, rbuf.size)
        send = [
            [_pairs(subs, state[subs]) for subs in layout.subscriptions[r]]
            for r, state in enumerate(states)
        ]
        received = engine.comm.alltoallv(ranks, send)
        for r, (state, rbuf) in enumerate(zip(states, received)):
            gids = rbuf["gid"]
            state[gids] = np.minimum(state[gids], rbuf["val"])
            engine.charge_vertices(r, rbuf.size)

        if not _any_changed(engine, n_changed):
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
    return _result(
        engine, layout, iterations, n_hubs=int(hubs.size), hub_threshold=hub_threshold
    )
