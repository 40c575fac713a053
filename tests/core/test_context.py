"""RankContext tests."""

import numpy as np
import pytest

from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import rmat

from ..conftest import ledger_entries


@pytest.fixture
def engine():
    return Engine(rmat(8, seed=3), grid=Grid2D(R=3, C=2))


class TestStateArrays:
    def test_alloc_spans_lid_space(self, engine):
        ctx = engine.ctx(0)
        arr = engine.alloc("x", np.float64, fill=2.0)[0]
        assert arr.shape == (ctx.n_total,) and arr is ctx.get("x")
        assert np.all(arr == 2.0)

    def test_dtype_change_reallocates(self, engine):
        a = engine.alloc("y", np.float64)[0]
        b = engine.alloc("y", np.int64)[0]
        assert a is not b
        assert b.dtype == np.int64

    def test_has_and_free(self, engine):
        ctx = engine.ctx(1)
        engine.alloc("z", np.float64)
        assert "z" in ctx.arrays
        engine.free("z")
        assert "z" not in ctx.arrays
        # freeing again names what is allocated
        with pytest.raises(KeyError, match=r"allocated states: \[\]"):
            engine.free("z")

    def test_memory_charged_and_released(self, engine):
        ctx, allocated = engine.ctx(2), engine.devices.allocated
        base = allocated[2]
        engine.alloc("w", np.float64)
        assert allocated[2] == base + ctx.n_total * 8
        engine.alloc("w", np.int32)  # replaced: the old array's bytes go
        assert allocated[2] == base + ctx.n_total * 4
        engine.free("w")
        assert allocated[2] == base

    def test_graph_structure_charged_on_construction(self, engine):
        held = ledger_entries(engine.devices, 0)
        assert "graph.indptr" in held
        assert "graph.indices" in held

    def test_adjacency_charged_at_the_modeled_entry_width(self, engine):
        """8 bytes per local edge (an int64 device index), not the
        host's int32: narrowing the host copy moves no device peak."""
        assert engine.partition.indices.dtype == np.int32
        for ctx in engine:
            held = ledger_entries(engine.devices, ctx.rank)
            assert held["graph.indices"] == 8 * ctx.block.n_local_edges


class TestGraphAccess:
    def test_local_degrees_cached_and_correct(self, engine):
        ctx = engine.ctx(3)
        degs = ctx.local_degrees()
        assert degs is ctx.local_degrees()
        assert np.array_equal(degs, np.diff(ctx.block.indptr))

    def test_row_col_lids_cover_windows(self, engine):
        ctx = engine.ctx(0)
        lm = ctx.localmap
        assert ctx.row_lids().size == lm.n_row
        assert ctx.col_lids().size == lm.n_col
        assert ctx.row_lids()[0] == lm.row_offset

    def test_expand_subset_consistent_with_expand_all(self, engine):
        ctx = engine.ctx(4)
        everything = ctx.expand(ctx.row_lids())
        rows = ctx.row_lids()[:3]
        ex = ctx.expand(rows, ctx.local_degrees()[:3])
        mask = np.isin(everything.src, rows)
        assert np.array_equal(np.sort(ex.dst), np.sort(everything.dst[mask]))
        assert np.array_equal(ex.src, rows[ex.entry])

    def test_weighted_expansion(self):
        g = rmat(7, seed=1).with_random_weights(seed=2)
        engine = Engine(g, 4)
        ctx = engine.ctx(0)
        ex = ctx.expand(ctx.row_lids())
        assert ex.weights is not None and ex.weights.shape == ex.dst.shape

    def test_slices_match_localmap(self, engine):
        ctx = engine.ctx(1)
        assert ctx.row_slice == ctx.localmap.row_slice
        assert ctx.col_slice == ctx.localmap.col_slice
