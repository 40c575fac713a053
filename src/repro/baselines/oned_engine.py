"""1D-distribution baseline engine (paper §1-2 background).

The classic multi-node graph distribution: each rank owns a contiguous
block of vertices *with their full adjacency rows*; non-owned adjacency
targets are ghosts.  Ghost updates move in an all-to-all exchange,
which is exactly the O(p^2)-message behaviour the paper's 2D layout is
designed to avoid — this engine exists so the message-scaling and
comparison benches have a faithful 1D comparator.

Implements the three benchmark algorithms (CC, PageRank, BFS) over the
1D layout with the same virtual-time machinery as the 2D engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.config import AIMOS, ClusterConfig
from ..cluster.costmodel import NCCL_PROFILE, CommProfile, CostModel
from ..cluster.topology import Topology
from ..comm.clocks import VirtualClocks
from ..comm.collectives import Communicator
from ..comm.counters import CommCounters
from ..core.result import AlgorithmResult, TimingReport
from ..graph.csr import Graph
from ..graph.partition.striped import group_ranges, striped_permutation
from ..kernels import scatter_reduce
from ..queueing.frontier import expand_csr

__all__ = ["OneDPartition", "OneDEngine", "cc_1d", "pagerank_1d", "bfs_1d"]


@dataclass
class OneDPartition:
    """One rank's 1D share: owned rows plus ghost directory.

    Adjacency entries are local ids: ``[0, n_own)`` are owned vertices,
    ``[n_own, n_own + n_ghost)`` index into ``ghost_gids`` (sorted).
    """

    rank: int
    start: int
    stop: int
    indptr: np.ndarray
    indices: np.ndarray
    ghost_gids: np.ndarray

    @property
    def n_own(self) -> int:
        return self.stop - self.start

    @property
    def n_local(self) -> int:
        return self.n_own + self.ghost_gids.size

    def lid(self, gids: np.ndarray) -> np.ndarray:
        """Local ids of global ids (owned or ghosted here)."""
        gids = np.asarray(gids, dtype=np.int64)
        owned = (gids >= self.start) & (gids < self.stop)
        out = np.empty(gids.shape, dtype=np.int64)
        out[owned] = gids[owned] - self.start
        out[~owned] = self.n_own + np.searchsorted(self.ghost_gids, gids[~owned])
        return out

    def gid(self, lids: np.ndarray) -> np.ndarray:
        lids = np.asarray(lids, dtype=np.int64)
        out = np.empty(lids.shape, dtype=np.int64)
        own = lids < self.n_own
        out[own] = lids[own] + self.start
        out[~own] = self.ghost_gids[lids[~own] - self.n_own]
        return out


class OneDEngine:
    """BSP engine over a 1D partition with all-to-all ghost exchange."""

    def __init__(
        self,
        graph: Graph,
        n_ranks: int,
        cluster: ClusterConfig = AIMOS,
        profile: CommProfile = NCCL_PROFILE,
    ):
        self.graph = graph
        self.n_ranks = n_ranks
        self.cluster = cluster
        n = graph.n_vertices
        self.perm = striped_permutation(n, n_ranks)
        relabeled = graph.permute(self.perm)
        self.offsets = group_ranges(n, n_ranks)
        self.parts: list[OneDPartition] = []
        mat = relabeled.to_scipy()
        for r in range(n_ranks):
            s, e = int(self.offsets[r]), int(self.offsets[r + 1])
            block = mat[s:e]
            gids = block.indices.astype(np.int64)
            ghost = np.unique(gids[(gids < s) | (gids >= e)])
            part = OneDPartition(
                rank=r,
                start=s,
                stop=e,
                indptr=block.indptr.astype(np.int64),
                indices=np.empty(gids.size, dtype=np.int64),
                ghost_gids=ghost,
            )
            part.indices[:] = part.lid(gids)
            self.parts.append(part)
        # Subscription lists: for each (owner, subscriber) pair, which
        # owned gids the subscriber ghosts.  Drives the owner->ghost
        # refresh leg of the exchange.
        self.subscriptions: list[list[np.ndarray]] = [
            [np.empty(0, dtype=np.int64)] * n_ranks for _ in range(n_ranks)
        ]
        for r, part in enumerate(self.parts):
            owners = np.searchsorted(self.offsets, part.ghost_gids, side="right") - 1
            for o in np.unique(owners):
                self.subscriptions[int(o)][r] = part.ghost_gids[owners == o]

        self.topology = Topology(cluster, n_ranks)
        self.costmodel = CostModel(cluster.gpu, self.topology, profile)
        self.counters = CommCounters()
        self.clocks = VirtualClocks(n_ranks, counters=self.counters)
        self.comm = Communicator(self.costmodel, self.clocks, self.counters)
        self.states: list[dict[str, np.ndarray]] = [dict() for _ in range(n_ranks)]

    # ------------------------------------------------------------------
    def alloc(self, name: str, fill: float = 0.0) -> None:
        for r, part in enumerate(self.parts):
            self.states[r][name] = np.full(part.n_local, fill)

    def charge_edges(self, rank: int, n_edges: int) -> None:
        self.clocks.add_compute(
            rank, self.costmodel.kernel_time(n_edges=n_edges)
        )

    def charge_vertices(self, rank: int, n_vertices: int) -> None:
        self.clocks.add_compute(
            rank, self.costmodel.kernel_time(n_vertices=n_vertices)
        )

    def exchange_min(
        self,
        name: str,
        updated_ghosts: list[np.ndarray],
        updated_owned: list[np.ndarray] | None = None,
    ) -> tuple[int, list[np.ndarray]]:
        """Push ghost updates to owners (all-to-all), reduce with MIN,
        and refresh subscribers (second all-to-all).

        ``updated_ghosts[r]`` holds ghost LIDs with changed state;
        ``updated_owned[r]`` holds owned LIDs the rank changed locally
        during compute — their subscribers must be refreshed too, or
        stale ghost reads (e.g. BFS visited masks) corrupt later
        iterations.  Returns the global number of owned vertices
        changed by remote contributions plus the per-rank changed
        owned LIDs.
        """
        from ..patterns.sparse import PAIR_DTYPE

        ranks = list(range(self.n_ranks))
        # Leg 1: ghosts -> owners.
        send = []
        for r, part in enumerate(self.parts):
            state = self.states[r][name]
            lids = np.asarray(updated_ghosts[r], dtype=np.int64)
            gids = part.gid(lids)
            owners = np.searchsorted(self.offsets, gids, side="right") - 1
            row = []
            for o in ranks:
                sel = owners == o
                buf = np.empty(int(sel.sum()), dtype=PAIR_DTYPE)
                buf["gid"] = gids[sel]
                buf["val"] = state[lids[sel]]
                row.append(buf)
            send.append(row)
            self.charge_vertices(r, lids.size)
        received = self.comm.alltoallv(ranks, send)
        # Owner reduce.
        changed_per_rank: list[np.ndarray] = []
        n_changed = 0
        for r, part in enumerate(self.parts):
            state = self.states[r][name]
            rbuf = received[r]
            lids = rbuf["gid"] - part.start
            changed = scatter_reduce(state, lids, rbuf["val"], "min")
            changed_per_rank.append(changed)
            n_changed += int(changed.size)
            self.charge_vertices(r, rbuf.size)
        # Leg 2: owners -> subscribers (only changed values).
        send2 = []
        for r, part in enumerate(self.parts):
            state = self.states[r][name]
            changed_gids = changed_per_rank[r] + part.start
            if updated_owned is not None and updated_owned[r].size:
                changed_gids = np.unique(
                    np.concatenate([changed_gids, updated_owned[r] + part.start])
                )
            row = []
            for dest in ranks:
                subs = self.subscriptions[r][dest]
                sel = changed_gids[np.isin(changed_gids, subs)]
                buf = np.empty(sel.size, dtype=PAIR_DTYPE)
                buf["gid"] = sel
                buf["val"] = state[sel - part.start]
                row.append(buf)
            send2.append(row)
        received2 = self.comm.alltoallv(ranks, send2)
        for r, part in enumerate(self.parts):
            state = self.states[r][name]
            rbuf = received2[r]
            if rbuf.size:
                state[part.lid(rbuf["gid"])] = rbuf["val"]
            self.charge_vertices(r, rbuf.size)
        return n_changed, changed_per_rank

    def gather(self, name: str) -> np.ndarray:
        """Owned windows stitched into original vertex order."""
        n = self.graph.n_vertices
        out = np.zeros(n)
        for r, part in enumerate(self.parts):
            out[part.start : part.stop] = self.states[r][name][: part.n_own]
        return out[self.perm]

    def timing_report(self) -> TimingReport:
        snap = self.clocks.snapshot()
        return TimingReport(total=snap.total, compute=snap.compute, comm=snap.comm)


# ----------------------------------------------------------------------
# algorithms over the 1D engine
# ----------------------------------------------------------------------
def cc_1d(engine: OneDEngine, max_iterations: int | None = None) -> AlgorithmResult:
    """Color-propagation CC over the 1D layout (push, sparse)."""
    engine.alloc("cc")
    for r, part in enumerate(engine.parts):
        state = engine.states[r]["cc"]
        state[: part.n_own] = np.arange(part.start, part.stop)
        state[part.n_own :] = part.ghost_gids
        engine.charge_vertices(r, part.n_local)

    iterations = 0
    active = [np.arange(p.n_own, dtype=np.int64) for p in engine.parts]
    while True:
        iterations += 1
        updated_ghosts = []
        next_active_local = []
        for r, part in enumerate(engine.parts):
            state = engine.states[r]["cc"]
            rows = active[r]
            ex = expand_csr(part.indptr, part.indices, rows)
            engine.charge_edges(r, ex.dst.size)
            changed = scatter_reduce(state, ex.dst, state[ex.src], "min")
            updated_ghosts.append(changed[changed >= part.n_own])
            next_active_local.append(changed[changed < part.n_own])
        n_remote, remote_changed = engine.exchange_min(
            "cc", updated_ghosts, next_active_local
        )
        # Owners whose value changed (locally or remotely) are active.
        active = []
        n_total = n_remote
        for r in range(engine.n_ranks):
            active.append(
                np.unique(np.concatenate([next_active_local[r], remote_changed[r]]))
            )
            n_total += int(next_active_local[r].size)
        flags = [np.array([float(n_total)]) for _ in range(engine.n_ranks)]
        engine.comm.allreduce(list(range(engine.n_ranks)), flags, op="max")
        if n_total == 0:
            break
        if max_iterations is not None and iterations >= max_iterations:
            break
    values = engine.gather("cc").astype(np.int64)
    inv = np.empty(values.size, dtype=np.int64)
    inv[engine.perm] = np.arange(values.size)
    return AlgorithmResult(
        values=inv[values],
        timings=engine.timing_report(),
        iterations=iterations,
        counters=engine.counters.summary(),
    )


def pagerank_1d(
    engine: OneDEngine, iterations: int = 20, damping: float = 0.85
) -> AlgorithmResult:
    """Pull PageRank over the 1D layout.

    Owners hold full adjacency rows, so no gather reduction is needed;
    the cost is the per-iteration owner->ghost refresh of *every*
    ghosted value — the O(p^2)-message dense exchange of the 1D world.
    """
    from ..patterns.sparse import PAIR_DTYPE

    n = engine.graph.n_vertices
    ranks = list(range(engine.n_ranks))
    engine.alloc("pr", fill=1.0 / n)
    engine.alloc("deg")
    # Global degrees: owners know them outright in 1D.
    for r, part in enumerate(engine.parts):
        engine.states[r]["deg"][: part.n_own] = np.diff(part.indptr)
    # Refresh ghost degrees once.
    _refresh_all(engine, "deg")

    for _ in range(iterations):
        dangling = 0.0
        for r, part in enumerate(engine.parts):
            pr = engine.states[r]["pr"]
            deg = engine.states[r]["deg"]
            rows = np.arange(part.n_own, dtype=np.int64)
            ex = expand_csr(part.indptr, part.indices, rows)
            dst = ex.dst
            engine.charge_edges(r, dst.size)
            acc = np.zeros(part.n_local)
            if dst.size:
                scatter_reduce(acc, ex.src, pr[dst] / np.maximum(deg[dst], 1.0), "sum")
            own = slice(0, part.n_own)
            dangling += float(pr[own][deg[own] == 0].sum())
            engine.states[r]["acc"] = acc
        flags = [np.array([dangling / engine.n_ranks]) for _ in ranks]
        # each rank computed only its own share; emulate with allreduce
        for r, part in enumerate(engine.parts):
            pr = engine.states[r]["pr"]
            deg = engine.states[r]["deg"]
            own = slice(0, part.n_own)
            flags[r][0] = float(pr[own][deg[own] == 0].sum())
        engine.comm.allreduce(ranks, flags, op="sum")
        dangling = float(flags[0][0])
        for r, part in enumerate(engine.parts):
            pr = engine.states[r]["pr"]
            acc = engine.states[r]["acc"]
            pr[: part.n_own] = (1.0 - damping) / n + damping * (
                acc[: part.n_own] + dangling / n
            )
            engine.charge_vertices(r, part.n_own)
        _refresh_all(engine, "pr")
    return AlgorithmResult(
        values=engine.gather("pr"),
        timings=engine.timing_report(),
        iterations=iterations,
        counters=engine.counters.summary(),
    )


def _refresh_all(engine: OneDEngine, name: str) -> None:
    """Dense owner->ghost refresh of every subscribed value."""
    from ..patterns.sparse import PAIR_DTYPE

    ranks = list(range(engine.n_ranks))
    send = []
    for r, part in enumerate(engine.parts):
        state = engine.states[r][name]
        row = []
        for dest in ranks:
            subs = engine.subscriptions[r][dest]
            buf = np.empty(subs.size, dtype=PAIR_DTYPE)
            buf["gid"] = subs
            buf["val"] = state[subs - part.start]
            row.append(buf)
        send.append(row)
        engine.charge_vertices(r, part.n_own)
    received = engine.comm.alltoallv(ranks, send)
    for r, part in enumerate(engine.parts):
        state = engine.states[r][name]
        rbuf = received[r]
        if rbuf.size:
            state[part.lid(rbuf["gid"])] = rbuf["val"]
        engine.charge_vertices(r, rbuf.size)


def bfs_1d(engine: OneDEngine, root: int) -> AlgorithmResult:
    """Top-down BFS over the 1D layout (sparse ghost exchange)."""
    n = engine.graph.n_vertices
    engine.alloc("parent", fill=np.inf)
    root_rel = int(engine.perm[root])
    frontier: list[np.ndarray] = []
    for r, part in enumerate(engine.parts):
        state = engine.states[r]["parent"]
        if part.start <= root_rel < part.stop:
            state[root_rel - part.start] = root_rel
            frontier.append(np.array([root_rel - part.start], dtype=np.int64))
        else:
            if root_rel in part.ghost_gids:
                state[part.lid(np.array([root_rel]))[0]] = root_rel
            frontier.append(np.empty(0, dtype=np.int64))

    depth = 0
    while True:
        depth += 1
        updated_ghosts = []
        local_new = []
        for r, part in enumerate(engine.parts):
            state = engine.states[r]["parent"]
            rows = frontier[r]
            ex = expand_csr(part.indptr, part.indices, rows)
            src, dst = ex.src, ex.dst
            engine.charge_edges(r, src.size)
            if dst.size:
                unv = state[dst] == np.inf
                src, dst = src[unv], dst[unv]
                cand = part.gid(src).astype(np.float64)
                changed = scatter_reduce(state, dst, cand, "min")
            else:
                changed = np.empty(0, dtype=np.int64)
            updated_ghosts.append(changed[changed >= part.n_own])
            local_new.append(changed[changed < part.n_own])
        n_remote, remote_changed = engine.exchange_min(
            "parent", updated_ghosts, local_new
        )
        frontier = []
        n_total = n_remote
        for r in range(engine.n_ranks):
            frontier.append(
                np.unique(np.concatenate([local_new[r], remote_changed[r]]))
            )
            n_total += int(local_new[r].size)
        flags = [np.array([float(n_total)]) for _ in range(engine.n_ranks)]
        engine.comm.allreduce(list(range(engine.n_ranks)), flags, op="max")
        if n_total == 0:
            break
    parents_rel = engine.gather("parent")
    inv = np.empty(n, dtype=np.int64)
    inv[engine.perm] = np.arange(n)
    reached = np.isfinite(parents_rel)
    parents = np.full(n, -1, dtype=np.int64)
    parents[reached] = inv[parents_rel[reached].astype(np.int64)]
    return AlgorithmResult(
        values=parents,
        timings=engine.timing_report(),
        iterations=depth,
        counters=engine.counters.summary(),
    )
