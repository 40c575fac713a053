"""Sparse exchange pattern tests (paper Algs. 3-5)."""

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.graph import rmat
from repro.patterns import (
    dense_pull,
    dense_push,
    propagate_active_pull,
    sparse_pull,
    sparse_push,
)

from ..conftest import GRIDS, permute, row_gid


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
