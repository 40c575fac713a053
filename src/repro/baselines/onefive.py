"""1.5D (hybrid) distribution baseline (paper §1 background).

Between the classic 1D layout and the paper's 2D layout sits the
"1.5D" family [PowerGraph-style, paper ref. 11]: low-degree vertices
are owned 1D-style, while *selected large-degree vertices are shared
among multiple ranks* — their state is replicated everywhere and kept
consistent with one AllReduce per iteration, and their (huge) adjacency
lists are implicitly split across the ranks that own the opposite
endpoints.  This removes the hub-induced ghost blow-up that cripples
1D layouts on power-law graphs, at the cost of an O(p)-wide replicated
state array.

The engine implements color-propagation CC (the study algorithm of the
paper's Fig. 6) with:

* symmetric local relaxation over owned-vertex edges — hub labels are
  read from / written to the replicated shared array, so hub adjacency
  never needs to be communicated;
* hub-hub edges kept by the hub's 1D owner;
* per iteration: one MIN AllReduce over the shared hub state plus the
  1D all-to-all ghost exchange over the (now hub-free) ghost sets.
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

__all__ = ["OneFiveDEngine", "cc_15d", "default_hub_threshold"]


def default_hub_threshold(graph: Graph, n_ranks: int) -> int:
    """Degree above which a vertex is shared.

    Hubs are vertices whose ghost fan-out would touch a large fraction
    of the ranks anyway; sharing starts paying off around a handful of
    times the average degree, scaled up for small rank counts.
    """
    avg = max(graph.n_edges / max(graph.n_vertices, 1), 1.0)
    return int(max(8 * avg, 2 * n_ranks))


@dataclass
class _RankShare:
    """One rank's share of the 1.5D layout."""

    start: int
    stop: int
    own_gids: np.ndarray  # non-hub owned vertices (relabeled GIDs)
    indptr: np.ndarray  # CSR over own_gids rows
    indices: np.ndarray  # local ids (see OneFiveDEngine id space)
    ghost_gids: np.ndarray  # non-hub ghosts, sorted
    hub_edges: np.ndarray  # (k, 2) hub-slot pairs owned by this rank


class OneFiveDEngine:
    """1.5D engine: 1D ownership + replicated hub state.

    Local id space per rank: ``[0, n_own)`` non-hub owned vertices,
    ``[n_own, n_own + n_ghost)`` non-hub ghosts, and the globally
    shared hubs at ``[n_own + n_ghost, n_own + n_ghost + n_hubs)``
    (hub slot order is identical on every rank).
    """

    def __init__(
        self,
        graph: Graph,
        n_ranks: int,
        hub_threshold: int | None = None,
        cluster: ClusterConfig = AIMOS,
        profile: CommProfile = NCCL_PROFILE,
    ):
        self.graph = graph
        self.n_ranks = n_ranks
        n = graph.n_vertices
        if hub_threshold is None:
            hub_threshold = default_hub_threshold(graph, n_ranks)
        self.hub_threshold = hub_threshold

        self.perm = striped_permutation(n, n_ranks)
        relabeled = graph.permute(self.perm)
        self.offsets = group_ranges(n, n_ranks)
        degrees = relabeled.degrees()
        self.hub_gids = np.flatnonzero(degrees > hub_threshold).astype(np.int64)
        self.is_hub = np.zeros(n, dtype=bool)
        self.is_hub[self.hub_gids] = True
        self.n_hubs = int(self.hub_gids.size)
        # hub gid -> hub slot
        self._hub_slot = np.full(n, -1, dtype=np.int64)
        self._hub_slot[self.hub_gids] = np.arange(self.n_hubs)

        self.shares: list[_RankShare] = []
        for r in range(n_ranks):
            s, e = int(self.offsets[r]), int(self.offsets[r + 1])
            gids = np.arange(s, e, dtype=np.int64)
            own = gids[~self.is_hub[gids]]
            # CSR over non-hub owned rows
            dst = expand_csr(relabeled.indptr, relabeled.indices, own).dst
            ghost_mask = ~self.is_hub[dst] & ((dst < s) | (dst >= e))
            ghosts = np.unique(dst[ghost_mask])
            degs = np.diff(relabeled.indptr)[own] if own.size else np.empty(0, dtype=np.int64)
            indptr = np.zeros(own.size + 1, dtype=np.int64)
            np.cumsum(degs, out=indptr[1:])
            # hub-hub edges whose source hub is 1D-owned here
            own_hubs = gids[self.is_hub[gids]]
            hubs = expand_csr(relabeled.indptr, relabeled.indices, own_hubs)
            hsrc, hdst = hubs.src, hubs.dst
            hub_pairs = np.stack(
                [
                    self._hub_slot[hsrc[self.is_hub[hdst]]],
                    self._hub_slot[hdst[self.is_hub[hdst]]],
                ],
                axis=1,
            ) if hsrc.size else np.empty((0, 2), dtype=np.int64)
            share = _RankShare(
                start=s,
                stop=e,
                own_gids=own,
                indptr=indptr,
                indices=np.empty(dst.size, dtype=np.int64),
                ghost_gids=ghosts,
                hub_edges=hub_pairs,
            )
            share.indices[:] = self._lid(share, dst)
            self.shares.append(share)

        self.topology = Topology(cluster, n_ranks)
        self.costmodel = CostModel(cluster.gpu, self.topology, profile)
        self.counters = CommCounters()
        self.clocks = VirtualClocks(n_ranks, counters=self.counters)
        self.comm = Communicator(self.costmodel, self.clocks, self.counters)
        self.states: list[dict[str, np.ndarray]] = [dict() for _ in range(n_ranks)]

    # ------------------------------------------------------------------
    def _lid(self, share: _RankShare, gids: np.ndarray) -> np.ndarray:
        """Local ids under the rank's id space (vectorized)."""
        gids = np.asarray(gids, dtype=np.int64)
        out = np.empty(gids.shape, dtype=np.int64)
        hub = self.is_hub[gids]
        owned = ~hub & (gids >= share.start) & (gids < share.stop)
        ghost = ~hub & ~owned
        n_own = share.own_gids.size
        n_ghost = share.ghost_gids.size
        # owned non-hub vertices are compacted in gid order
        out[owned] = np.searchsorted(share.own_gids, gids[owned])
        out[ghost] = n_own + np.searchsorted(share.ghost_gids, gids[ghost])
        out[hub] = n_own + n_ghost + self._hub_slot[gids[hub]]
        return out

    def n_local(self, rank: int) -> int:
        share = self.shares[rank]
        return share.own_gids.size + share.ghost_gids.size + self.n_hubs

    def alloc(self, name: str, fill: float = 0.0) -> None:
        for r in range(self.n_ranks):
            self.states[r][name] = np.full(self.n_local(r), fill)

    def charge_edges(self, rank: int, n_edges: int) -> None:
        self.clocks.add_compute(rank, self.costmodel.kernel_time(n_edges=n_edges))

    def charge_vertices(self, rank: int, n_vertices: int) -> None:
        self.clocks.add_compute(
            rank, self.costmodel.kernel_time(n_vertices=n_vertices)
        )

    # ------------------------------------------------------------------
    def gather(self, name: str) -> np.ndarray:
        """Assemble the global vector (original vertex order)."""
        n = self.graph.n_vertices
        out = np.zeros(n)
        for r, share in enumerate(self.shares):
            state = self.states[r][name]
            out[share.own_gids] = state[: share.own_gids.size]
        if self.n_hubs:
            state0 = self.states[0][name]
            base = self.shares[0].own_gids.size + self.shares[0].ghost_gids.size
            out[self.hub_gids] = state0[base : base + self.n_hubs]
        return out[self.perm]

    def timing_report(self) -> TimingReport:
        snap = self.clocks.snapshot()
        return TimingReport(total=snap.total, compute=snap.compute, comm=snap.comm)


def cc_15d(
    engine: OneFiveDEngine, max_iterations: int | None = None
) -> AlgorithmResult:
    """Color-propagation CC on the 1.5D layout."""
    from ..patterns.sparse import PAIR_DTYPE

    ranks = list(range(engine.n_ranks))
    engine.alloc("cc")
    for r, share in enumerate(engine.shares):
        state = engine.states[r]["cc"]
        n_own, n_ghost = share.own_gids.size, share.ghost_gids.size
        state[:n_own] = share.own_gids
        state[n_own : n_own + n_ghost] = share.ghost_gids
        state[n_own + n_ghost :] = engine.hub_gids
        engine.charge_vertices(r, state.size)

    iterations = 0
    while True:
        iterations += 1
        n_changed = 0
        updated_ghosts: list[np.ndarray] = []
        hub_views: list[np.ndarray] = []
        share0 = engine.shares[0]
        hub_base0 = share0.own_gids.size + share0.ghost_gids.size
        hub_before = engine.states[0]["cc"][hub_base0:].copy()
        for r, share in enumerate(engine.shares):
            state = engine.states[r]["cc"]
            n_own, n_ghost = share.own_gids.size, share.ghost_gids.size
            rows = np.arange(n_own, dtype=np.int64)
            ex = expand_csr(share.indptr, share.indices, rows)
            src, dst = ex.src, ex.dst
            engine.charge_edges(r, 2 * src.size + 2 * share.hub_edges.shape[0])
            before_own = state[:n_own].copy()
            if src.size:
                # symmetric relaxation: labels flow both directions, so
                # hub adjacency is covered by the reverse edges here
                scatter_reduce(state, dst, state[src], "min")
                scatter_reduce(state, src, state[dst], "min")
            he = share.hub_edges
            if he.size:
                base = n_own + n_ghost
                scatter_reduce(state, base + he[:, 1], state[base + he[:, 0]], "min")
                scatter_reduce(state, base + he[:, 0], state[base + he[:, 1]], "min")
            changed_own = np.flatnonzero(state[:n_own] < before_own)
            n_changed += int(changed_own.size)
            ghost_lids = np.arange(n_own, n_own + n_ghost, dtype=np.int64)
            updated_ghosts.append(ghost_lids)  # conservatively exchange all
            hub_views.append(state[n_own + n_ghost :])

        # (a) hub state: one MIN AllReduce over the replicated array.
        if engine.n_hubs:
            engine.comm.allreduce(ranks, hub_views, op="min")
            n_changed += int(
                np.count_nonzero(
                    engine.states[0]["cc"][hub_base0:] < hub_before
                )
            )

        # (b) low-degree ghosts: 1D all-to-all (send ghost values to
        # owners, reduce, refresh subscribers) — reusing the plain 1D
        # exchange shape, but over hub-free ghost sets.
        send = []
        for r, share in enumerate(engine.shares):
            state = engine.states[r]["cc"]
            n_own = share.own_gids.size
            gids = share.ghost_gids
            owners = np.searchsorted(engine.offsets, gids, side="right") - 1
            row = []
            for o in ranks:
                sel = owners == o
                buf = np.empty(int(sel.sum()), dtype=PAIR_DTYPE)
                buf["gid"] = gids[sel]
                buf["val"] = state[n_own : n_own + gids.size][sel]
                row.append(buf)
            send.append(row)
            engine.charge_vertices(r, gids.size)
        received = engine.comm.alltoallv(ranks, send)
        for r, share in enumerate(engine.shares):
            state = engine.states[r]["cc"]
            rbuf = received[r]
            if rbuf.size:
                lids = engine._lid(share, rbuf["gid"])
                n_changed += int(scatter_reduce(state, lids, rbuf["val"], "min").size)
            engine.charge_vertices(r, rbuf.size)
        # refresh ghosts from owners
        send2 = []
        for r, share in enumerate(engine.shares):
            state = engine.states[r]["cc"]
            row = []
            for dest in ranks:
                dshare = engine.shares[dest]
                subs = dshare.ghost_gids
                mine = subs[(subs >= share.start) & (subs < share.stop)]
                buf = np.empty(mine.size, dtype=PAIR_DTYPE)
                buf["gid"] = mine
                buf["val"] = state[engine._lid(share, mine)]
                row.append(buf)
            send2.append(row)
        received2 = engine.comm.alltoallv(ranks, send2)
        for r, share in enumerate(engine.shares):
            state = engine.states[r]["cc"]
            rbuf = received2[r]
            if rbuf.size:
                state[engine._lid(share, rbuf["gid"])] = np.minimum(
                    state[engine._lid(share, rbuf["gid"])], rbuf["val"]
                )
            engine.charge_vertices(r, rbuf.size)

        flags = [np.array([float(n_changed)]) for _ in ranks]
        engine.comm.allreduce(ranks, flags, op="max")
        if flags[0][0] == 0:
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
        extra={"n_hubs": engine.n_hubs, "hub_threshold": engine.hub_threshold},
    )
