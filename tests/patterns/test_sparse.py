"""Sparse exchange pattern tests (paper Algs. 3-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import Graph, rmat
from repro.patterns import (
    dense_pull,
    dense_push,
    propagate_active_pull,
    sparse_pull,
    sparse_push,
)

from ..conftest import GRIDS, permute, record_stages, row_gid


def _consistent_init(engine, name, seed):
    """Globally consistent random state (scattered from one vector)."""
    rng = np.random.default_rng(seed)
    vec = rng.integers(10, 100, size=engine.partition.n_vertices).astype(float)
    engine.scatter_global(name, vec)
    return vec


def _apply_local_updates(engine, name, seed, window):
    """Emulate a compute kernel: each rank lowers a few vertices in the
    given window ('col' for push, 'row' for pull).  Returns the queues."""
    rng = np.random.default_rng(seed)
    queues = []
    for ctx in engine:
        s = ctx.get(name)
        sl = ctx.col_slice if window == "col" else ctx.row_slice
        size = sl.stop - sl.start
        k = int(rng.integers(0, max(size // 4, 1)))
        lids = rng.choice(np.arange(sl.start, sl.stop), size=k, replace=False)
        s[lids] = np.minimum(s[lids], rng.integers(0, 9, size=k).astype(float))
        queues.append(np.sort(lids))
    return queues


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
def test_sparse_push_equals_dense_push(grid):
    """The sparse exchange must reach exactly the state the dense
    exchange reaches from identical local updates."""
    g = rmat(7, seed=2)
    e1 = Engine(g, grid=grid)
    e2 = Engine(g, grid=grid)
    _consistent_init(e1, "s", 5)
    _consistent_init(e2, "s", 5)
    q1 = _apply_local_updates(e1, "s", 6, "col")
    q2 = _apply_local_updates(e2, "s", 6, "col")
    for a, b in zip(q1, q2):
        assert np.array_equal(a, b)

    sparse_push(e1, "s", e1.fleet.stack(q1)[0], op="min")
    dense_push(e2, "s", op="min")
    for r in range(grid.n_ranks):
        assert np.array_equal(e1.ctx(r).get("s"), e2.ctx(r).get("s"))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
def test_sparse_pull_equals_dense_pull(grid):
    g = rmat(7, seed=2)
    e1 = Engine(g, grid=grid)
    e2 = Engine(g, grid=grid)
    _consistent_init(e1, "s", 7)
    _consistent_init(e2, "s", 7)
    q1 = _apply_local_updates(e1, "s", 8, "row")
    q2 = _apply_local_updates(e2, "s", 8, "row")

    sparse_pull(e1, "s", e1.fleet.stack(q1)[0], op="min")
    dense_pull(e2, "s", op="min")
    for r in range(grid.n_ranks):
        assert np.array_equal(e1.ctx(r).get("s"), e2.ctx(r).get("s"))


def test_sparse_push_counts_updates():
    g = rmat(7, seed=2)
    engine = Engine(g, 4)
    vec = _consistent_init(engine, "s", 1)
    # lower exactly one vertex on one rank
    ctx = engine.ctx(0)
    lid = ctx.col_slice.start
    ctx.get("s")[lid] = -1.0
    # stacked LIDs: rank 0's start at 0
    result = sparse_push(engine, "s", np.array([lid]), op="min")
    assert result.n_updated == 1
    out = engine.gather("s")
    gid = ctx.localmap.col_gid(lid)
    changed = np.flatnonzero(out != vec)
    assert changed.size == 1
    assert out[engine.partition.original_gid(np.array([gid]))[0]] == -1.0


def test_sparse_no_updates_is_cheap_and_stable():
    g = rmat(6, seed=2)
    engine = Engine(g, 4)
    vec = _consistent_init(engine, "s", 1)
    result = sparse_push(engine, "s", np.empty(0, dtype=np.int64), op="min")
    assert result.n_updated == 0
    assert np.array_equal(engine.gather("s"), vec)


def test_sparse_volume_below_dense_volume():
    """The point of sparse comms: volume proportional to updates."""
    g = rmat(8, seed=2)
    e_sparse = Engine(g, 16)
    e_dense = Engine(g, 16)
    _consistent_init(e_sparse, "s", 1)
    _consistent_init(e_dense, "s", 1)
    # tiny update set
    queues = [np.empty(0, dtype=np.int64)] * 16
    queues[3] = np.array([e_sparse.ctx(3).col_slice.start])
    e_sparse.ctx(3).get("s")[queues[3][0]] = 0.0
    sparse_push(e_sparse, "s", e_sparse.fleet.stack(queues)[0], op="min")
    dense_push(e_dense, "s", op="min")
    assert e_sparse.counters.total_bytes < e_dense.counters.total_bytes / 10


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
def test_propagate_active_pull_marks_neighbors(grid):
    """Active queue after a pull = neighbors of the updated vertices,
    consistent across each row group."""
    g = rmat(7, seed=4)
    engine = Engine(g, grid=grid)
    part = engine.partition
    rng = np.random.default_rng(0)
    updated_orig = rng.choice(g.n_vertices, size=5, replace=False)
    updated_rel = part.perm[updated_orig]

    updated_rows = []
    for ctx in engine:
        lm = ctx.localmap
        mine = updated_rel[(updated_rel >= lm.row_start) & (updated_rel < lm.row_stop)]
        updated_rows.append(lm.row_lid(np.sort(mine)))
    active = propagate_active_pull(engine, engine.fleet.stack(updated_rows)[0])
    assert np.all(np.diff(active) > 0)  # one ascending rank-major queue
    active = engine.fleet.split(active)

    # expected: all neighbors (relabeled) of the updated set
    relabeled = permute(g, part.perm)
    expect = set()
    for v in updated_rel:
        expect.update(relabeled.neighbors(v).tolist())
    for ctx in engine:
        lm = ctx.localmap
        got = set(row_gid(lm, active[ctx.rank]).tolist())
        mine = {v for v in expect if lm.row_start <= v < lm.row_stop}
        assert got == mine


# ---------------------------------------------------------------------
# What each owner is handed: the stages' send rows, read at the
# collective, against what the exchange owes each rank
# ---------------------------------------------------------------------
#: 1 x p, p x 1, prime p and more ranks than vertices among them
SEAM_GRIDS = [
    Grid2D(R=1, C=1),
    Grid2D(R=2, C=2),
    Grid2D(R=4, C=1),
    Grid2D(R=1, C=4),
    Grid2D(R=2, C=4),
    Grid2D(R=3, C=5),
    Grid2D(R=4, C=4),
    Grid2D(R=7, C=1),
]

_UFUNC = {"min": np.minimum, "max": np.maximum}


def _random_graph(rng) -> Graph:
    n = int(rng.integers(2, 49))
    m = int(rng.integers(0, 4 * n + 1))
    return Graph.from_edges(rng.integers(0, n, size=m), rng.integers(0, n, size=m), n)


def _seam_engine(grid, overlap, seed):
    """An engine holding a consistent random state ``s``; the state in
    relabeled GID order."""
    rng = np.random.default_rng(seed)
    engine = Engine(_random_graph(rng), grid=grid, overlap=overlap)
    engine.reset_timers()
    x = rng.integers(10, 100, size=engine.partition.n_vertices).astype(float)
    engine.scatter_global("s", x)
    return engine, rng, engine.partition.to_relabeled_order(x)


def _kernel_writes(engine, rng, window, op):
    """Each rank moves some cells of its ``window`` strictly toward
    ``op`` (the local kernel's updates); per rank, the LIDs it moved in
    a random order and their GIDs."""
    step = -1.0 if op == "min" else 1.0
    queues, gids = [], []
    for ctx in engine:
        lm, sl = ctx.localmap, ctx.col_slice if window == "col" else ctx.row_slice
        lids = rng.permutation(np.flatnonzero(rng.random(sl.stop - sl.start) < 0.4) + sl.start)
        ctx.get("s")[lids] += step * rng.integers(1, 50, size=lids.size)
        queues.append(lids.astype(np.int64))
        gids.append(lm.col_gid(lids) if window == "col" else row_gid(lm, lids))
    return queues, gids


def _sent(stage, rank):
    """Rank ``rank``'s send rows of a recorded AllGatherv stage."""
    return stage["sends"][rank]


def _assert_pairs(rows, gids, vals):
    assert rows["gid"].tolist() == np.asarray(gids).tolist()
    assert rows["val"].tobytes() == np.asarray(vals, dtype=np.float64).tobytes()


def _assert_replicas(engine, final):
    """Every rank's row and column windows hold ``final`` (GID order)."""
    for ctx in engine:
        lm, state = ctx.localmap, ctx.get("s")
        assert state[lm.row_slice].tobytes() == final[lm.row_start : lm.row_stop].tobytes()
        assert state[lm.col_slice].tobytes() == final[lm.col_start : lm.col_stop].tobytes()


def hold_push_to_what_each_owner_is_owed(engine, rng, x, op):
    """Column stage: every rank sends ``{GID, value}`` of its queue, in
    queue order.  Row stage: every rank sends the final value of each
    vertex it owns (row and column window) that the column reduce
    changed or its own kernel wrote, ascending; every member of the row
    group assigns it.  The result names those vertices on every member.
    ``engine`` holds ``x`` (GID order) as ``s``, as :func:`_seam_engine`
    leaves it."""
    queues, sent = _kernel_writes(engine, rng, "col", op)
    final = x.copy()
    for ctx, q, gids in zip(engine, queues, sent):
        _UFUNC[op].at(final, gids, ctx.get("s")[q])
    owned = []
    for ctx, gids in zip(engine, sent):
        lm, state = ctx.localmap, ctx.get("s")
        mine = np.arange(max(lm.row_start, lm.col_start), min(lm.row_stop, lm.col_stop))
        moved = final[mine] != state[lm.col_lid(mine)] if mine.size else mine.astype(bool)
        owned.append(np.union1d(mine[moved], np.intersect1d(gids, mine)))
    before = engine.fleet.stacked("s").copy()
    with pytest.MonkeyPatch.context() as patch:
        stages = record_stages(patch)
        result = sparse_push(engine, "s", engine.fleet.stack(queues)[0], op=op)

    assert [s["kind"] for s in stages] == ["allgatherv", "allgatherv"]
    for ctx, q, gids, mine in zip(engine, queues, sent, owned):
        _assert_pairs(_sent(stages[0], ctx.rank), gids, before[engine.fleet.base[ctx.rank] + q])
        _assert_pairs(_sent(stages[1], ctx.rank), mine, final[mine])
    _assert_replicas(engine, final)
    rows, n_updated = [], 0
    for _, members in engine.row_groups():
        updated = np.concatenate([owned[m] for m in members])
        n_updated += updated.size
        rows += [engine.ctx(m).localmap.row_lid(np.sort(updated)) for m in members]
    assert result.n_updated == n_updated
    assert result.rows.tolist() == engine.fleet.stack(rows)[0].tolist()


def test_sparse_pull_rows_are_the_row_group_s_queue():
    """A cell one member queues without its kernel changing it is
    still an updated row of every member of its row group, and counted
    once: ``SparseResult.rows`` is the same on every rank of a row
    group."""
    engine = Engine(rmat(5, seed=1), grid=Grid2D(R=2, C=2))
    _consistent_init(engine, "s", 3)
    ctx = engine.ctx(1)
    lid = ctx.row_slice.start  # queued, but its value is left as it was
    result = sparse_pull(engine, "s", engine.fleet.stack(
        [np.array([lid]) if r == 1 else np.empty(0, np.int64) for r in range(4)]
    )[0])
    gid = row_gid(ctx.localmap, np.array([lid]))
    rows = engine.fleet.split(result.rows)
    for _, members in engine.row_groups():
        want = gid if 1 in members else np.empty(0, np.int64)
        for r in members:
            got = row_gid(engine.ctx(r).localmap, rows[r])
            assert got.tolist() == want.tolist(), r
    assert result.n_updated == 1


def hold_pull_to_what_each_owner_is_owed(engine, rng, x, op):
    """Row stage: every rank sends ``{GID, value}`` of its queue, in
    queue order, and every member reduces it.  Column stage: every rank
    sends the final value of each updated row vertex in its column
    range, ascending — a vertex some member of its row group queued —
    and every member of the column group assigns it.  The result is
    those rows on every rank, the same on every member of a row group.
    ``engine`` holds ``x`` (GID order) as ``s``, as
    :func:`_seam_engine` leaves it."""
    queues, sent = _kernel_writes(engine, rng, "row", op)
    final = x.copy()
    for ctx, q, gids in zip(engine, queues, sent):
        _UFUNC[op].at(final, gids, ctx.get("s")[q])
    updated = [None] * engine.n_ranks
    for _, members in engine.row_groups():
        group = np.unique(np.concatenate([sent[r] for r in members]))
        for r in members:
            updated[r] = group
    before = engine.fleet.stacked("s").copy()
    with pytest.MonkeyPatch.context() as patch:
        stages = record_stages(patch)
        result = sparse_pull(engine, "s", engine.fleet.stack(queues)[0], op=op)

    assert [s["kind"] for s in stages] == ["allgatherv", "allgatherv"]
    for ctx, q, gids, rows in zip(engine, queues, sent, updated):
        lm = ctx.localmap
        _assert_pairs(_sent(stages[0], ctx.rank), gids, before[engine.fleet.base[ctx.rank] + q])
        ghosts = rows[(rows >= lm.col_start) & (rows < lm.col_stop)]
        _assert_pairs(_sent(stages[1], ctx.rank), ghosts, final[ghosts])
    _assert_replicas(engine, final)
    want = [engine.ctx(r).localmap.row_lid(rows) for r, rows in enumerate(updated)]
    assert result.rows.tolist() == engine.fleet.stack(want)[0].tolist()
    assert result.n_updated == sum(updated[members[0]].size for _, members in engine.row_groups())


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from(SEAM_GRIDS), overlap=st.booleans(), seed=st.integers(0, 2**31))
def test_propagate_active_pull_hands_each_owner_its_neighbors(grid, overlap, seed):
    """Column stage: every rank sends the GIDs its local edges reach
    from its queued rows, ascending.  Row stage: every rank sends the
    GIDs its column group delivered that it owns, ascending.  Each rank
    ends with its row group's union, ascending."""
    engine, rng, _ = _seam_engine(grid, overlap, seed)
    queues = []
    for ctx in engine:
        rows = np.arange(ctx.row_slice.start, ctx.row_slice.stop)
        queues.append(rng.permutation(rows[rng.random(rows.size) < 0.4]).astype(np.int64))
    hold_propagate_active_pull_to_its_dues(engine, queues)


def hold_propagate_active_pull_to_its_dues(engine, queues):
    """Run ``propagate_active_pull`` on per-rank ``queues`` of row LIDs
    (any order within a rank) and check what each stage sent and each
    rank ended with, as the contract above states."""
    graph = permute(engine.graph, engine.partition.perm)
    reached = []
    for ctx, q in zip(engine, queues):
        lm = ctx.localmap
        nbrs = [graph.neighbors(g) for g in row_gid(lm, q)]
        nbrs = np.unique(np.concatenate([np.empty(0, np.int64), *nbrs]))
        reached.append(nbrs[(nbrs >= lm.col_start) & (nbrs < lm.col_stop)])
    kept = [None] * engine.n_ranks
    for _, members in engine.col_groups():
        gathered = np.concatenate([reached[m] for m in members])
        for m in members:
            lm = engine.ctx(m).localmap
            kept[m] = np.unique(gathered[(gathered >= lm.row_start) & (gathered < lm.row_stop)])
    with pytest.MonkeyPatch.context() as patch:
        stages = record_stages(patch)
        active = propagate_active_pull(engine, engine.fleet.stack(queues)[0])

    assert [s["kind"] for s in stages] == ["allgatherv", "allgatherv"]
    want = [None] * engine.n_ranks
    for r in range(engine.n_ranks):
        assert _sent(stages[0], r).tolist() == reached[r].tolist()
        assert _sent(stages[1], r).tolist() == kept[r].tolist()
    for _, members in engine.row_groups():
        union = np.unique(np.concatenate([kept[m] for m in members]))
        for m in members:
            want[m] = engine.ctx(m).localmap.row_lid(union)
    assert active.dtype == np.int64
    assert active.tolist() == engine.fleet.stack(want)[0].tolist()
