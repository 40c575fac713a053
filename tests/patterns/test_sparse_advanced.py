"""Advanced sparse-pattern paths: delta sums and degenerate grids."""

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.graph import rmat
from repro.patterns import sparse_pull, sparse_push

from ..conftest import GRIDS, owns_col_gid


def _consistent_init(engine, name, seed, fill=None):
    rng = np.random.default_rng(seed)
    n = engine.partition.n_vertices
    vec = (
        np.full(n, fill, dtype=float)
        if fill is not None
        else rng.integers(10, 100, size=n).astype(float)
    )
    engine.scatter_global(name, vec)
    return vec


class TestDeltaSums:
    def test_sum_op_applies_deltas(self):
        """op='sum' has delta semantics: queued values accumulate."""
        g = rmat(6, seed=5)
        engine = Engine(g, 4)
        _consistent_init(engine, "s", 0, fill=0.0)
        ctx = engine.ctx(0)
        lid = ctx.col_slice.start
        gid = int(ctx.localmap.col_gid(lid))
        # rank 0 contributes a delta of 7 on one ghost
        ctx.get("s")[lid] = 7.0
        # stacked LIDs: rank 0's start at 0
        sparse_push(engine, "s", np.array([lid]), op="sum")
        # every member of the column group holding gid accumulated it...
        for r in engine.grid.col_group_ranks(engine.grid.coords(0)[1]):
            other = engine.ctx(r)
            mask = owns_col_gid(other.localmap, np.array([gid]))
            if mask[0]:
                got = other.get("s")[other.localmap.col_lid(gid)]
                # rank 0's own copy held 7 already and then accumulated
                # its echo (7 + 7); others started at 0 (0 + 7).
                assert got in (7.0, 14.0)


class TestEmptyGroupPaths:
    @pytest.mark.parametrize("grid", [GRIDS[2], GRIDS[3]], ids=("1x4", "4x1"))
    def test_degenerate_grids(self, grid):
        """Single-row-group / single-column-group grids exercise the
        degenerate group paths (k=1 collectives)."""
        g = rmat(7, seed=2)
        engine = Engine(g, grid=grid)
        _consistent_init(engine, "s", 3)
        for fn in (sparse_push, sparse_pull):
            result = fn(engine, "s", np.empty(0, dtype=np.int64), op="min")
            assert result.n_updated == 0
