"""The stacked 2.5D reduction, matching and pointer jumping's gathers
against the per-rank formulation they replaced.

The oracle below is the implementation as it stood before every
AllGatherv-based complex pattern ran on the fleet, kept verbatim
(renamed ``per_rank_*``): ``neighbor_histograms``, ``complex_reduce``
and ``refresh_ghosts`` as one ``Engine.map_ranks`` closure per rank,
their gathers through ``allgatherv_by_rank``, coloring's
``winner_histograms``, matching's four per-rank phases and pointer
jumping's ``local_minima`` / ``build_final`` / ``apply_final``.  The
stacked bodies are held to it bit for bit: values, iterations, all
seven clock lanes, the communication counters and, for Label
Propagation, the encoded active queue of every superstep's checkpoint,
on blocking and overlapped engines over tall, wide, non-divisible and
256-rank grids.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np
import pytest

from repro.algorithms import (
    core_numbers,
    greedy_coloring,
    label_propagation,
    max_weight_matching,
    pointer_jumping,
)
from repro.algorithms.coloring import _smallest_absent, color_priorities
from repro.algorithms.pagerank import compute_global_degrees
from repro.algorithms.pointerjump import (
    PJ_DTYPE,
    _home_ranks,
    _home_tables,
)
from repro.comm.collectives import rank_major
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
from repro.patterns.dense import dense_pull
from repro.patterns.packets import packet_swap
from repro.patterns.sparse import PAIR_DTYPE, propagate_active_pull, sparse_push

CAND_DTYPE = np.dtype([("gid", np.int64), ("w", np.float64), ("nbr", np.int64)])


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
        return build_histogram(ctx.localmap.row_gid(ex.src), ctx.get(name)[ex.dst])

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
        mine = rows[lm.owns_col_gid(lm.row_gid(rows))]
        buf = np.empty(mine.size, dtype=dtype)
        buf["gid"] = lm.row_gid(mine)
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
        received = engine.comm.alltoallv(ranks, [sends[r] for r in ranks])
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
                ctx.localmap.row_gid(src[colored]), color[dst[colored]]
            )
            lonely = winners[
                ~np.isin(winners, src[colored])
            ] if winners.size else winners
            sentinel = build_histogram(
                ctx.localmap.row_gid(lonely), np.full(lonely.size, -1.0)
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
            buf["gid"] = lm.row_gid(s[last])
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
            src_orig = part.original_gid(lm.row_gid(src))
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
            buf["gid"] = lm.row_gid(have)
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


def per_rank_pointer_jumping(engine: Engine):
    part = engine.partition
    engine.reset_timers()
    parent = per_rank_initial_forest(engine)
    home_gids, home_parent, converged = _home_tables(
        part, parent, parent == np.arange(part.n_vertices)
    )
    iterations, done = 0, False
    while not done:
        iterations += 1

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

        arrived = packet_swap(engine, engine.map_ranks(build_queries))

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

        delivered = packet_swap(engine, engine.map_ranks(build_responses))

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
        done = n_changed == 0
        engine.superstep_boundary("pj")

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
    return part.original_gid(engine.gather("pj").astype(np.int64)), iterations


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
    """Records the encoded active queue of every Label Propagation
    superstep's checkpoint (the loop state a checkpoint would keep,
    called at every boundary)."""

    def __init__(self, engine: Engine):
        self.queues: list = []
        boundary = engine.superstep_boundary

        def record(tag, state=None):
            if tag == "lp":
                self.queues.append(state()["active"])
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
