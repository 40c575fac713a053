"""Dense exchange pattern tests (paper Alg. 2)."""

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.graph import rmat
from repro.patterns import dense_pull, dense_push

from ..conftest import GRIDS


def _fill_random(engine, name, seed):
    rng = np.random.default_rng(seed)
    for arr in engine.alloc(name, np.float64):
        arr[...] = rng.integers(0, 100, size=arr.size).astype(np.float64)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
@pytest.mark.parametrize("op", ["min", "sum"])
def test_dense_push_reduces_col_groups(grid, op):
    """After a push: every vertex's value everywhere equals the ``op``
    reduction of its column group's pre-exchange *col-window* values."""
    g = rmat(7, seed=9)
    engine = Engine(g, grid=grid)
    _fill_random(engine, "s", seed=3)
    part = engine.partition
    n = part.n_vertices

    expected = np.zeros(n) if op == "sum" else np.full(n, np.inf)
    for id_c, ranks in engine.col_groups():
        cs, ce = int(part.col_offsets[id_c]), int(part.col_offsets[id_c + 1])
        vals = np.stack(
            [engine.ctx(r).get("s")[engine.ctx(r).col_slice] for r in ranks]
        )
        red = vals.sum(axis=0) if op == "sum" else vals.min(axis=0)
        expected[cs:ce] = red

    dense_push(engine, "s", op=op)

    for ctx in engine:
        lm = ctx.localmap
        s = ctx.get("s")
        assert np.allclose(s[lm.col_slice], expected[lm.col_start : lm.col_stop])
        assert np.allclose(s[lm.row_slice], expected[lm.row_start : lm.row_stop])


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
@pytest.mark.parametrize("op", ["min", "sum"])
def test_dense_pull_reduces_row_groups(grid, op):
    """Mirror of the push test with row-window reductions."""
    g = rmat(7, seed=9)
    engine = Engine(g, grid=grid)
    _fill_random(engine, "s", seed=4)
    part = engine.partition
    n = part.n_vertices

    expected = np.zeros(n) if op == "sum" else np.full(n, np.inf)
    for id_r, ranks in engine.row_groups():
        rs, re = part.row_range(id_r)
        vals = np.stack(
            [engine.ctx(r).get("s")[engine.ctx(r).row_slice] for r in ranks]
        )
        red = vals.sum(axis=0) if op == "sum" else vals.min(axis=0)
        expected[rs:re] = red

    dense_pull(engine, "s", op=op)

    for ctx in engine:
        lm = ctx.localmap
        s = ctx.get("s")
        assert np.allclose(s[lm.row_slice], expected[lm.row_start : lm.row_stop])
        assert np.allclose(s[lm.col_slice], expected[lm.col_start : lm.col_stop])


def test_dense_charges_comm_time():
    g = rmat(7, seed=9)
    engine = Engine(g, 4)
    engine.alloc("s", np.float64)
    before = engine.clocks.snapshot()
    dense_push(engine, "s", op="min")
    after = engine.clocks.snapshot()
    assert after.comm > before.comm
    assert engine.counters.by_kind["allreduce"].calls == engine.grid.R


def test_dense_exchange_dispatch():
    from repro.patterns import dense_exchange

    g = rmat(6, seed=1)
    engine = Engine(g, 4)
    engine.alloc("s", np.float64)
    dense_exchange(engine, "s", "push", "min")
    dense_exchange(engine, "s", "pull", "min")
    with pytest.raises(ValueError):
        dense_exchange(engine, "s", "sideways", "min")
