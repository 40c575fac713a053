"""The stacked 2.5D reduction, matching, packet swapping and pointer
jumping against the per-rank formulation they replaced.

The oracle below is the implementation as it stood before every
complex pattern ran on the fleet, kept verbatim (renamed
``per_rank_*``): ``neighbor_histograms``, ``complex_reduce`` and
``refresh_ghosts`` as one ``Engine.map_ranks`` closure per rank, their
gathers through ``allgatherv_by_rank``, coloring's
``winner_histograms``, matching's four per-rank phases, and pointer
jumping's ``local_minima`` / ``build_final`` / ``apply_final``, per-rank
home tables and jump loop.  Its personalized exchanges are the
per-list AllToAllV of one group at a time (``per_list_alltoallv``:
the collective's core as it stood, then the group's own clock sync),
under ``packet_swap``'s per-rank splits (``per_rank_packet_swap``).
The stacked bodies are held to it bit for bit: values, iterations, all
seven clock lanes, the communication counters and, for Label
Propagation and pointer jumping, what every superstep's checkpoint
keeps (the encoded active queue; the pointers), on blocking and
overlapped engines over tall, wide, non-divisible and 256-rank grids.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    core_numbers,
    greedy_coloring,
    label_propagation,
    max_weight_matching,
    pointer_jumping,
)
from repro.algorithms.coloring import _smallest_absent, color_priorities
from repro.algorithms.pagerank import compute_global_degrees
from repro.algorithms.pointerjump import PJ_DTYPE, _home_ranks
from repro.comm.collectives import CollectiveHandle, _join, rank_major
from repro.comm.grid import Grid2D
from repro.core import fleet as fleet_mod
from repro.core.engine import Engine
from repro.core.program import init_vertex_state
from repro.graph import rmat
from repro.kernels import csr_pull, scatter_reduce
from repro.patterns.complex import (
    HASH_WORK_PER_EDGE,
    TRIPLE_DTYPE,
    build_histogram,
    h_index_from_histograms,
    merge_histograms,
    neighbor_histograms,
    owner_chunks,
    owner_of_vertex,
    select_mode,
)
from repro.faults import RankFailure
from repro.patterns.dense import dense_pull
from repro.patterns.sparse import PAIR_DTYPE, propagate_active_pull, sparse_push

from ..conftest import owns_col_gid, row_gid

CAND_DTYPE = np.dtype([("gid", np.int64), ("w", np.float64), ("nbr", np.int64)])


# ----------------------------------------------------------------------
# the oracle: the personalized exchange, one group's lists at a time
# ----------------------------------------------------------------------
def per_list_alltoallv_core(comm, ranks, send_matrix, nic_sharing):
    """Validate, move data, record counters; return (cost, result)."""
    k = len(ranks)
    if len(send_matrix) != k or any(len(row) != k for row in send_matrix):
        shape = f"{len(send_matrix)} x {[len(row) for row in send_matrix]}"
        raise ValueError(
            f"send_matrix must be {k} x {k} for group {list(ranks)}; "
            f"got {shape}"
        )
    parts = [[np.asarray(b) for b in row] for row in send_matrix]
    flat = [p for row in parts for p in row]
    # every part one dtype (an offending part names its sender), so
    # each member's parts join as raw bytes; an all-empty join keeps
    # the dtype
    comm._check_dtypes([r for r in ranks for _ in ranks], flat)
    received = [_join([row[j] for row in parts]) for j in range(k)]
    nbytes = [p.nbytes for p in flat]
    total, max_pair = sum(nbytes), max(nbytes, default=0)
    t = comm.costmodel.alltoall_time(ranks, max_pair, nic_sharing=nic_sharing)
    comm.counters.record(
        "alltoallv",
        serial_messages=k * (k - 1),
        transfers=k * (k - 1),
        nbytes=total,
    )
    return t, received


def per_list_alltoallv(comm, ranks, send_matrix, nic_sharing=1):
    """One group's blocking AllToAllV: guard, core, clock sync."""
    if comm.guard is not None:
        comm.guard(comm.clocks, "alltoallv", ranks, [b for row in send_matrix for b in row])
    t, received = per_list_alltoallv_core(comm, ranks, send_matrix, nic_sharing)
    comm.clocks.sync_group(ranks, t)
    return received


def per_list_start_alltoallv(comm, ranks, send_matrix, nic_sharing=1):
    """One group's split-phase AllToAllV: core now, time at ``wait``."""
    t, received = per_list_alltoallv_core(comm, ranks, send_matrix, nic_sharing)
    inflight = comm.clocks.issue_collective(ranks, t)
    return CollectiveHandle("alltoallv", tuple(ranks), inflight, received, received)


def _split_by(packets: np.ndarray, keys: np.ndarray, n_bins: int) -> list[np.ndarray]:
    """Partition a packet buffer into ``n_bins`` by integer key."""
    order = np.argsort(keys, kind="stable")
    sorted_pkts = packets[order]
    sorted_keys = keys[order]
    bounds = np.searchsorted(sorted_keys, np.arange(n_bins + 1))
    return [sorted_pkts[bounds[b] : bounds[b + 1]] for b in range(n_bins)]


def per_rank_packet_swap(engine: Engine, packets: list[np.ndarray]) -> list[np.ndarray]:
    """Deliver per-rank packet buffers to their ``dest`` ranks."""
    grid = engine.grid
    if len(packets) != grid.n_ranks:
        raise ValueError("need one packet buffer per rank")
    for r, buf in enumerate(packets):
        if buf.size and (buf["dest"].min() < 0 or buf["dest"].max() >= grid.n_ranks):
            raise ValueError(f"rank {r}: packet dest out of range")

    row_share = engine.stage_nic_sharing("row")
    col_share = engine.stage_nic_sharing("col")

    def split_cols(ctx) -> list[np.ndarray]:
        buf = packets[ctx.rank]
        dest_cols = (buf["dest"] % grid.R).astype(np.int64)
        engine.charge_vertices(ctx.rank, buf.size)
        return _split_by(buf, dest_cols, grid.R)

    splits = engine.map_ranks(split_cols)
    staged: list[np.ndarray] = [None] * grid.n_ranks  # type: ignore[list-item]
    handles = []
    for id_r, ranks in engine.row_groups():
        if engine.overlap:
            h = per_list_start_alltoallv(
                engine.comm, ranks, [splits[r] for r in ranks], nic_sharing=row_share
            )
            handles.append(h)
            received = h.result
        else:
            received = per_list_alltoallv(
                engine.comm, ranks, [splits[r] for r in ranks], nic_sharing=row_share
            )
        for pos, r in enumerate(ranks):
            staged[r] = received[pos]

    def split_rows(ctx) -> list[np.ndarray]:
        buf = staged[ctx.rank]
        dest_rows = (buf["dest"] // grid.R).astype(np.int64)
        engine.charge_vertices(ctx.rank, buf.size)
        return _split_by(buf, dest_rows, grid.C)

    splits = engine.map_ranks(split_rows)
    for h in handles:
        engine.comm.wait(h)
    delivered: list[np.ndarray] = [None] * grid.n_ranks  # type: ignore[list-item]
    for id_c, ranks in engine.col_groups():
        received = per_list_alltoallv(
            engine.comm, ranks, [splits[r] for r in ranks], nic_sharing=col_share
        )
        for pos, r in enumerate(ranks):
            delivered[r] = received[pos]
    return delivered


# ----------------------------------------------------------------------
# the oracle: the 2.5D pattern, rank by rank
# ----------------------------------------------------------------------
def per_rank_neighbor_histograms(
    engine: Engine, name: str, rows: np.ndarray
) -> list[np.ndarray]:
    """Per-rank histograms of the ``name`` values held by the local
    neighbors of ``rows`` (a rank-major queue of stacked row LIDs)."""
    rows_per_rank = engine.fleet.split(rows)

    def local_histogram(ctx):
        rows = rows_per_rank[ctx.rank]
        degs = ctx.local_degrees()[rows - ctx.localmap.row_offset]
        engine.charge_edges(ctx.rank, degs, work_per_edge=HASH_WORK_PER_EDGE)
        ex = ctx.expand(rows, degs)
        return build_histogram(row_gid(ctx.localmap, ex.src), ctx.get(name)[ex.dst])

    return engine.map_ranks(local_histogram)


def per_rank_allgatherv_by_rank(engine: Engine, groups, sbufs) -> list[np.ndarray]:
    """AllGatherv ``sbufs`` (by rank) inside every group of ``groups``
    as one stage call; each rank's received buffer, by rank."""
    members = [ranks for _, ranks in groups]
    rbufs = engine.comm.allgatherv_stage(members, *rank_major(sbufs))
    rbuf_of: list[Optional[np.ndarray]] = [None] * engine.grid.n_ranks
    for ranks, rbuf in zip(members, rbufs):
        for r in ranks:
            rbuf_of[r] = rbuf
    return rbuf_of


def per_rank_refresh_ghosts(
    engine: Engine, names: Sequence[str], rows_per_rank: Sequence[np.ndarray]
) -> None:
    """Refresh the column-window (ghost) copies of ``rows_per_rank``."""
    dtype = np.dtype([("gid", np.int64)] + [(n, np.float64) for n in names])

    def build_refresh(ctx):
        lm = ctx.localmap
        rows = rows_per_rank[ctx.rank]
        mine = rows[owns_col_gid(lm, row_gid(lm, rows))]
        buf = np.empty(mine.size, dtype=dtype)
        buf["gid"] = row_gid(lm, mine)
        for n in names:
            buf[n] = ctx.get(n)[mine]
        engine.charge_vertices(ctx.rank, mine.size)
        return buf

    rbuf_of = per_rank_allgatherv_by_rank(
        engine, engine.col_groups(), engine.map_ranks(build_refresh)
    )

    def apply_refresh(ctx):
        rbuf = rbuf_of[ctx.rank]
        lids = ctx.localmap.col_lid(rbuf["gid"])
        for n in names:
            ctx.get(n)[lids] = rbuf[n]
        engine.charge_vertices(ctx.rank, rbuf.size)

    engine.foreach(apply_refresh)


def per_rank_complex_reduce(engine, name, histograms, owner_reduce, combine=None):
    """One 2.5D complex reduction of per-rank ``histograms``; the
    changed rows (stacked) and the global number of changed vertices."""
    part, grid = engine.partition, engine.grid

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
    received_of: list[Optional[np.ndarray]] = [None] * grid.n_ranks
    for _, ranks in engine.row_groups():
        received = per_list_alltoallv(engine.comm, ranks, [sends[r] for r in ranks])
        for pos, r in enumerate(ranks):
            received_of[r] = received[pos]

    def reduce_owned(ctx):
        merged = merge_histograms(received_of[ctx.rank])
        gids, winners = owner_reduce(merged)
        engine.charge_vertices(ctx.rank, merged.size)
        buf = np.empty(gids.size, dtype=PAIR_DTYPE)
        buf["gid"] = gids
        buf["val"] = winners
        return buf

    rbuf_of = per_rank_allgatherv_by_rank(
        engine, engine.row_groups(), engine.map_ranks(reduce_owned)
    )

    def apply_winners(ctx):
        state = ctx.get(name)
        rbuf = rbuf_of[ctx.rank]
        lids = ctx.localmap.row_lid(rbuf["gid"])
        old = state[lids]
        state[lids] = rbuf["val"] if combine is None else combine(old, rbuf["val"])
        engine.charge_vertices(ctx.rank, rbuf.size)
        return np.asarray(lids[state[lids] != old], dtype=np.int64)

    changed_rows = engine.map_ranks(apply_winners)
    per_rank_refresh_ghosts(engine, (name,), changed_rows)
    rows, counts = engine.fleet.stack(changed_rows)
    return rows, int(counts[[ranks[0] for _, ranks in engine.row_groups()]].sum())


# ----------------------------------------------------------------------
# the oracle: the five algorithms over it (no resume: runs from the start)
# ----------------------------------------------------------------------
def per_rank_label_propagation(engine: Engine, iterations: int = 20):
    engine.reset_timers()
    init_vertex_state(engine, "label", lambda gids: gids)
    s = SimpleNamespace(
        active=np.flatnonzero(engine.fleet.row_mask), iterations_run=0, done=False
    )

    def saved():
        return {**vars(s), "active": engine.fleet.encode_queue(s.active)}

    while s.iterations_run < iterations and not s.done:
        s.iterations_run += 1
        histograms = per_rank_neighbor_histograms(engine, "label", s.active)
        changed_rows, n_changed = per_rank_complex_reduce(
            engine, "label", histograms, select_mode
        )
        s.active = propagate_active_pull(engine, changed_rows)
        s.done = n_changed == 0
        engine.superstep_boundary("lp", saved)
    return engine.gather("label").astype(np.int64), s.iterations_run


def per_rank_core_numbers(engine: Engine):
    engine.reset_timers()
    compute_global_degrees(engine)
    fleet = engine.fleet
    engine.alloc("core", np.float64)
    fleet.stacked("core")[...] = fleet.stacked("deg")
    engine.charge_vertices(None, fleet.n_total)
    active = np.flatnonzero(fleet.row_mask)
    iterations = 0
    while True:
        iterations += 1
        changed_rows, n_changed = per_rank_complex_reduce(
            engine,
            "core",
            per_rank_neighbor_histograms(engine, "core", active),
            h_index_from_histograms,
            combine=np.minimum,
        )
        active = propagate_active_pull(engine, changed_rows)
        engine.superstep_boundary("kcore")
        if n_changed == 0:
            break
    return engine.gather("core").astype(np.int64), iterations


def per_rank_greedy_coloring(engine: Engine, seed: int = 0):
    engine.reset_timers()
    fleet = engine.fleet
    engine.scatter_global("prio", color_priorities(engine.partition.n_vertices, seed))
    engine.alloc("color", np.float64, fill=-1.0)
    engine.alloc("maxp", np.float64)
    engine.charge_vertices(None, fleet.n_total)
    pull = fleet.csr()
    full_queue, rows_per_rank = fleet.full_queue()
    rounds = 0
    while True:
        rounds += 1
        engine.charge_edges(
            None, full_queue, segments=rows_per_rank, cache_key="color.full"
        )
        uncolored_prio = np.where(
            fleet.stacked("color") < 0, fleet.stacked("prio"), -np.inf
        )
        fleet.stacked("maxp")[...] = csr_pull(pull, uncolored_prio, "max")
        dense_pull(engine, "maxp", op="max")

        def winner_histograms(ctx):
            color = ctx.get("color")
            prio = ctx.get("prio")
            maxp = ctx.get("maxp")
            rows = ctx.row_lids()
            winners = rows[(color[rows] < 0) & (prio[rows] >= maxp[rows])]
            degs = ctx.local_degrees()[winners - ctx.localmap.row_offset]
            ex = ctx.expand(winners, degs)
            src, dst = ex.src, ex.dst
            engine.charge_edges(ctx.rank, degs)
            colored = color[dst] >= 0 if dst.size else np.empty(0, dtype=bool)
            tri = build_histogram(
                row_gid(ctx.localmap, src[colored]), color[dst[colored]]
            )
            lonely = winners[
                ~np.isin(winners, src[colored])
            ] if winners.size else winners
            sentinel = build_histogram(
                row_gid(ctx.localmap, lonely), np.full(lonely.size, -1.0)
            )
            return np.concatenate([tri, sentinel])

        _, n_colored = per_rank_complex_reduce(
            engine, "color", engine.map_ranks(winner_histograms), _smallest_absent
        )
        engine.superstep_boundary("coloring")
        if n_colored == 0:
            break
    return engine.gather("color").astype(np.int64), rounds


def per_rank_max_weight_matching(engine: Engine):
    engine.reset_timers()
    part, grid = engine.partition, engine.grid
    engine.alloc("mate", np.float64, fill=-1.0)
    engine.alloc("dead", np.float64, fill=0.0)
    engine.alloc("ptr", np.float64, fill=-1.0)
    engine.charge_vertices(None, engine.fleet.n_total)
    rounds = 0
    while True:
        rounds += 1

        def local_candidates(ctx):
            mate, dead = ctx.get("mate"), ctx.get("dead")
            lm = ctx.localmap
            rows = ctx.row_lids()
            rows = rows[(mate[rows] < 0) & (dead[rows] == 0)]
            degs = ctx.local_degrees()[rows - lm.row_offset]
            engine.charge_edges(ctx.rank, degs, work_per_edge=2.0)
            ex = ctx.expand(rows, degs)
            src, dst, w = ex.src, ex.dst, ex.weights
            if src.size:
                avail = (mate[dst] < 0) & (dead[dst] == 0)
                src, dst, w = src[avail], dst[avail], w[avail]
            if src.size == 0:
                return rows, np.empty(0, dtype=CAND_DTYPE)
            nbr_orig = part.original_gid(lm.col_gid(dst))
            order = np.lexsort((nbr_orig, w, src))
            s, wo, no = src[order], w[order], nbr_orig[order]
            last = np.ones(s.size, dtype=bool)
            last[:-1] = s[1:] != s[:-1]
            buf = np.empty(int(last.sum()), dtype=CAND_DTYPE)
            buf["gid"] = row_gid(lm, s[last])
            buf["w"] = wo[last]
            buf["nbr"] = no[last]
            return rows, buf

        step1 = engine.map_ranks(local_candidates)
        considered = [rows for rows, _ in step1]
        candidates = [cand for _, cand in step1]

        winners_of: list = [None] * grid.n_ranks
        rbuf_size_of: list[int] = [0] * grid.n_ranks
        rbuf_of = per_rank_allgatherv_by_rank(engine, engine.row_groups(), candidates)
        for id_r, ranks in engine.row_groups():
            rbuf = rbuf_of[ranks[0]]
            if rbuf.size:
                order = np.lexsort((rbuf["nbr"], rbuf["w"], rbuf["gid"]))
                rb = rbuf[order]
                last = np.ones(rb.size, dtype=bool)
                last[:-1] = rb["gid"][1:] != rb["gid"][:-1]
                winners = rb[last]
            else:
                winners = rbuf
            for r in ranks:
                winners_of[r] = winners
                rbuf_size_of[r] = rbuf.size

        def apply_pointers(ctx):
            lm = ctx.localmap
            ptr, dead = ctx.get("ptr"), ctx.get("dead")
            rows = considered[ctx.rank]
            winners = winners_of[ctx.rank]
            ptr[rows] = -1.0
            if winners.size:
                ptr[lm.row_lid(winners["gid"])] = winners["nbr"]
            newly_dead = rows[ptr[rows] < 0]
            dead[newly_dead] = 1.0
            engine.charge_vertices(ctx.rank, rbuf_size_of[ctx.rank] + rows.size)

        engine.foreach(apply_pointers)
        per_rank_refresh_ghosts(engine, ("ptr", "dead"), considered)

        def mutual_pairs(ctx):
            mate, ptr = ctx.get("mate"), ctx.get("ptr")
            lm = ctx.localmap
            rows = considered[ctx.rank]
            degs = ctx.local_degrees()[rows - lm.row_offset]
            engine.charge_edges(ctx.rank, degs)
            ex = ctx.expand(rows, degs)
            src, dst = ex.src, ex.dst
            if src.size == 0:
                return np.empty(0, dtype=np.int64)
            src_orig = part.original_gid(row_gid(lm, src))
            dst_orig = part.original_gid(lm.col_gid(dst))
            mutual = (ptr[src] == dst_orig) & (ptr[dst] == src_orig)
            d = dst[mutual]
            mate[d] = src_orig[mutual]
            return np.unique(d)

        queues = engine.map_ranks(mutual_pairs)
        result = sparse_push(engine, "mate", engine.fleet.stack(queues)[0], op="max")
        engine.superstep_boundary("mwm")
        if result.n_updated == 0:
            break
    return engine.gather("mate").astype(np.int64), rounds


def per_rank_initial_forest(engine: Engine) -> np.ndarray:
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
            buf["gid"] = row_gid(lm, have)
            buf["val"] = best[have]
        return buf

    cand = engine.map_ranks(local_minima)
    parent = np.empty(part.n_vertices, dtype=np.int64)
    n_received = np.zeros(grid.n_ranks, dtype=np.int64)
    rbuf_of = per_rank_allgatherv_by_rank(engine, engine.row_groups(), cand)
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


def per_rank_home_tables(part, parent: np.ndarray, converged: np.ndarray):
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


def per_rank_pointers(part, home_gids, home_parent, converged) -> dict:
    """The home tables as original-order vectors (the inverse of
    :func:`per_rank_home_tables`): what a checkpoint keeps."""
    parent = np.empty(part.n_vertices, dtype=np.int64)
    conv = np.zeros(part.n_vertices, dtype=bool)
    for rank, gids in home_gids.items():
        orig = part.original_gid(gids)
        parent[orig] = part.original_gid(home_parent[rank])
        conv[orig] = converged[rank]
    return {"parent": parent, "converged": conv}


def per_rank_pointer_jumping(engine: Engine):
    part = engine.partition
    engine.reset_timers()
    parent = per_rank_initial_forest(engine)
    home_gids, home_parent, converged = per_rank_home_tables(
        part, parent, parent == np.arange(part.n_vertices)
    )
    s = SimpleNamespace(iterations=0, done=False)

    def saved():
        return {**vars(s), **per_rank_pointers(part, home_gids, home_parent, converged)}

    while not s.done:
        s.iterations += 1

        def build_queries(ctx):
            r = ctx.rank
            pending = ~converged[r]
            targets = np.unique(home_parent[r][pending])
            q = np.empty(targets.size, dtype=PJ_DTYPE)
            q["src"] = r
            q["vert"] = targets
            q["dest"] = _home_ranks(engine, targets)
            engine.charge_vertices(r, int(pending.sum()) + targets.size)
            return q

        arrived = per_rank_packet_swap(engine, engine.map_ranks(build_queries))

        def build_responses(ctx):
            r = ctx.rank
            inbox = arrived[r]
            lookup = np.searchsorted(home_gids[r], inbox["vert"])
            resp = np.empty(inbox.size, dtype=PJ_DTYPE)
            resp["src"] = inbox["vert"]
            resp["vert"] = home_parent[r][lookup]
            resp["dest"] = inbox["src"]
            engine.charge_vertices(r, inbox.size)
            return resp

        delivered = per_rank_packet_swap(engine, engine.map_ranks(build_responses))

        def apply_jumps(ctx):
            r = ctx.rank
            inbox = delivered[r]
            if inbox.size == 0:
                return 0
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
            conv[np.flatnonzero(pending)[is_root_parent]] = True
            converged[r] = conv
            engine.charge_vertices(r, inbox.size + int(pending.sum()))
            return int(np.count_nonzero(old != new_vals))

        n_changed, wait = engine.reduce_partials(
            engine.map_ranks(apply_jumps), over="ranks"
        )
        wait()
        s.done = n_changed == 0
        engine.superstep_boundary("pj", saved)

    engine.alloc("pj", np.float64, fill=-1.0)

    def build_final(ctx):
        r = ctx.rank
        buf = np.empty(home_gids[r].size, dtype=PAIR_DTYPE)
        buf["gid"] = home_gids[r]
        buf["val"] = home_parent[r]
        return buf

    rbuf_of = per_rank_allgatherv_by_rank(
        engine, engine.row_groups(), engine.map_ranks(build_final)
    )

    def apply_final(ctx):
        rbuf = rbuf_of[ctx.rank]
        ctx.get("pj")[ctx.localmap.row_lid(rbuf["gid"])] = rbuf["val"]
        engine.charge_vertices(ctx.rank, rbuf.size)

    engine.foreach(apply_final)
    return part.original_gid(engine.gather("pj").astype(np.int64)), s.iterations


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
#: "CxR": tall, wide, square, non-divisible, and the paper's 256 ranks
GRIDS = {
    "1x4": Grid2D(R=4, C=1),
    "4x1": Grid2D(R=1, C=4),
    "2x2": Grid2D(R=2, C=2),
    "2x4": Grid2D(R=4, C=2),
    "3x5": Grid2D(R=5, C=3),
    "4x4": Grid2D(R=4, C=4),
    "16x16": Grid2D(R=16, C=16),
}

#: algorithm -> (stacked entry point, per-rank oracle)
ALGORITHMS = {
    "lp": (lambda e: label_propagation(e), per_rank_label_propagation),
    "kcore": (core_numbers, per_rank_core_numbers),
    "coloring": (
        lambda e: greedy_coloring(e, seed=1),
        lambda e: per_rank_greedy_coloring(e, seed=1),
    ),
    "mwm": (max_weight_matching, per_rank_max_weight_matching),
    "pj": (pointer_jumping, per_rank_pointer_jumping),
}


class _Boundaries:
    """Records what every Label Propagation and pointer jumping
    superstep's checkpoint keeps (the loop state a checkpoint would
    keep, called at every boundary): the encoded active queue; the
    iteration count, the done flag and the pointers."""

    def __init__(self, engine: Engine):
        self.queues: list = []
        boundary = engine.superstep_boundary

        def record(tag, state=None):
            if tag == "lp":
                self.queues.append(state()["active"])
            if tag == "pj":
                saved = state()
                self.queues.extend(
                    np.asarray(saved[key])
                    for key in ("iterations", "done", "parent", "converged")
                )
            return boundary(tag, state)

        engine.superstep_boundary = record


def _assert_same_run(graph, grid, overlap, which):
    run, oracle_run = ALGORITHMS[which]
    stacked = Engine(graph, grid=grid, overlap=overlap)
    oracle = Engine(graph, grid=grid, overlap=overlap)
    got_queues, want_queues = _Boundaries(stacked), _Boundaries(oracle)
    got = run(stacked)
    values, iterations = oracle_run(oracle)
    assert got.values.tobytes() == values.tobytes()
    assert got.iterations == iterations
    assert stacked.clocks.lanes.tobytes() == oracle.clocks.lanes.tobytes()
    assert stacked.counters.summary() == oracle.counters.summary()
    assert len(got_queues.queues) == len(want_queues.queues)
    for a, b in zip(got_queues.queues, want_queues.queues):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return got


@pytest.fixture(scope="module")
def graph():
    return rmat(8, seed=11).with_random_weights(seed=5)


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
@pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
@pytest.mark.parametrize("which", list(ALGORITHMS))
def test_stacked_run_equals_per_rank_oracle(graph, grid, overlap, which):
    got = _assert_same_run(graph, grid, overlap, which)
    assert got.iterations > 1


@pytest.mark.parametrize("which", ["lp", "kcore", "coloring"])
def test_histogram_edges_spanning_slices(monkeypatch, which):
    """With a tiny edge budget every rank's histogram edges span many
    expansion slices: the stacked histogram is still each rank's
    histogram, sorted by (gid, label)."""
    graph, grid = rmat(6, seed=2).with_random_weights(seed=3), Grid2D(R=2, C=2)
    monkeypatch.setattr(fleet_mod, "EXPAND_EDGE_BUDGET", 4)
    engine = Engine(graph, grid=grid)
    init_vertex_state(engine, "label", lambda gids: gids % 5)
    rows = np.flatnonzero(engine.fleet.row_mask)
    per_slice = [np.unique(owner) for owner, _ in engine.fleet.expand(rows)]
    for rank in range(grid.n_ranks):
        assert sum(rank in ranks for ranks in per_slice) > 1  # spans slices
    triples, counts = neighbor_histograms(engine, "label", rows)
    want = per_rank_neighbor_histograms(engine, "label", rows)
    assert triples.dtype == TRIPLE_DTYPE
    assert counts.tolist() == [t.size for t in want]
    assert triples.tobytes() == np.concatenate(want).tobytes()
    _assert_same_run(graph, grid, False, which)


# ----------------------------------------------------------------------
# the AllToAllV stage against the per-list calls, group by group
# ----------------------------------------------------------------------
def _comms(grid: Grid2D, seed: int):
    """Two engines' communicators on ``grid`` with the same uneven
    clocks, and the engine's row and column groups."""
    comms = []
    for _ in range(2):
        engine = Engine(rmat(6, seed=3), grid=grid)
        rng = np.random.default_rng(seed)
        engine.clocks.add_compute_all(rng.uniform(0.0, 1e-3, size=grid.n_ranks))
        comms.append(engine.comm)
    groups = {
        "row": [ranks for _, ranks in engine.row_groups()],
        "col": [ranks for _, ranks in engine.col_groups()],
    }
    return comms, groups


def _sends(p: int, k: int, seed: int):
    """Rank-major ``PAIR_DTYPE`` rows and their ``p x k`` counts; about
    half the ranks send nothing."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(p, k)) * (rng.random((p, 1)) < 0.5)
    send = np.empty(int(counts.sum()), dtype=PAIR_DTYPE)
    send["gid"] = rng.integers(0, 1000, size=send.size)
    send["val"] = rng.random(send.size)
    return send, counts


def _matrix(send, counts, ranks) -> list[list[np.ndarray]]:
    """A group's send parts as the per-list call took them."""
    k = counts.shape[1]
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    return [[send[bounds[r * k + j] : bounds[r * k + j + 1]] for j in range(k)] for r in ranks]


def _same(a, b) -> None:
    assert a.clocks.lanes.tobytes() == b.clocks.lanes.tobytes()
    assert a.counters.summary() == b.counters.summary()


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from([Grid2D(R=2, C=2), Grid2D(R=1, C=4), Grid2D(R=4, C=1),
                          Grid2D(R=3, C=2), Grid2D(R=2, C=4)]),
    axis=st.sampled_from(["row", "col"]),
    split_phase=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_alltoallv_stage_equals_the_per_list_calls(grid, axis, split_phase, seed):
    """Received rows, counters and all seven clock lanes equal one
    per-list call per group — blocking, and split-phase after every
    handle is waited."""
    (staged, oracle), groups = _comms(grid, seed)
    groups = groups[axis]
    send, counts = _sends(grid.n_ranks, len(groups[0]), seed)
    want = [np.empty(0, dtype=PAIR_DTYPE)] * grid.n_ranks
    if split_phase:
        (recv, sizes), handles = staged.start_alltoallv_stage(groups, send, counts, 2)
        issued = [
            per_list_start_alltoallv(oracle, ranks, _matrix(send, counts, ranks), 2)
            for ranks in groups
        ]
        for handle, pending in zip(handles, issued):
            assert handle.inflight.issued_at == pending.inflight.issued_at
            assert handle.inflight.comm_seconds == pending.inflight.comm_seconds
            got = staged.wait(handle)
            for r, x, y in zip(pending.ranks, got, oracle.wait(pending)):
                assert x.tobytes() == y.tobytes()
                want[r] = y
    else:
        recv, sizes = staged.alltoallv_stage(groups, send, counts, 2)
        for ranks in groups:
            received = per_list_alltoallv(oracle, ranks, _matrix(send, counts, ranks), 2)
            for r, buf in zip(ranks, received):
                want[r] = buf
    assert sizes.tolist() == [w.size for w in want]
    assert recv.dtype == PAIR_DTYPE and recv.tobytes() == b"".join(w.tobytes() for w in want)
    _same(staged, oracle)


@pytest.mark.parametrize("split_phase", [False, True], ids=["blocking", "split-phase"])
@pytest.mark.parametrize("fail_at", [0, 1, 3])
def test_a_guard_raising_at_group_g_of_an_alltoallv_stage(fail_at, split_phase):
    """A guard that raises at group ``g``: the groups before ``g`` moved,
    were counted and charged (on ``wait`` for split-phase), as one
    per-list call per group leaves them; ``g`` and the groups after it
    were not charged."""
    (staged, oracle), groups = _comms(Grid2D(R=2, C=4), 11)
    groups = groups["row"]
    send, counts = _sends(8, 2, 5)

    def guard(clocks, kind, ranks, payload):
        assert kind == "alltoallv"
        # the members' send parts, sender-major (blocking), or their
        # received buffers (split-phase, checked at wait)
        matrix = _matrix(send, counts, ranks)
        want = (
            [_join([row[j] for row in matrix]) for j in range(len(ranks))]
            if split_phase else [b for row in matrix for b in row]
        )
        assert [p.tobytes() for p in payload] == [w.tobytes() for w in want]
        if list(ranks) == groups[fail_at]:
            raise RankFailure(ranks[0], 1, kind, fault_kind="crash")

    staged.guard = guard
    with pytest.raises(RankFailure):
        if split_phase:
            for handle in staged.start_alltoallv_stage(groups, send, counts)[1]:
                staged.wait(handle)
        else:
            staged.alltoallv_stage(groups, send, counts)
    for ranks in groups[:fail_at]:
        per_list_alltoallv(oracle, ranks, _matrix(send, counts, ranks))
    if split_phase:  # every group was issued and counted before the first wait
        for ranks in groups[fail_at:]:
            per_list_start_alltoallv(oracle, ranks, _matrix(send, counts, ranks))
    _same(staged, oracle)
