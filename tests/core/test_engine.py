"""Engine API tests."""

import re

import numpy as np
import pytest

from repro.cluster import ZEPY, DeviceMemoryError, GENERIC_PROFILE
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import rmat

from ..conftest import ledger_entries, scatter_global


class TestConstruction:
    def test_square_from_n_ranks(self, rmat_graph):
        e = Engine(rmat_graph, 16)
        assert e.grid.R == e.grid.C == 4
        assert e.n_ranks == 16

    def test_nonsquare_needs_explicit_grid(self, rmat_graph):
        with pytest.raises(ValueError):
            Engine(rmat_graph, 12)
        e = Engine(rmat_graph, grid=Grid2D(R=4, C=3))
        assert e.n_ranks == 12

    def test_conflicting_args(self, rmat_graph):
        with pytest.raises(ValueError):
            Engine(rmat_graph, 8, grid=Grid2D(R=2, C=2))

    @pytest.mark.parametrize(
        "count", [True, 4.0, 16.0, np.float64(4), 0, -4], ids=repr
    )
    def test_n_ranks_is_not_coerced(self, rmat_graph, count):
        with pytest.raises(ValueError, match=re.escape(repr(count))):
            Engine(rmat_graph, n_ranks=count)

    def test_n_ranks_beside_a_grid_is_not_coerced(self, rmat_graph):
        with pytest.raises(ValueError, match="not True"):
            Engine(rmat_graph, n_ranks=True, grid=Grid2D(R=1, C=1))
        assert Engine(rmat_graph, n_ranks=np.int64(1), grid=Grid2D(R=1, C=1)).n_ranks == 1

    def test_n_ranks_takes_a_numpy_integer(self, rmat_graph):
        e = Engine(rmat_graph, n_ranks=np.int64(16))
        assert (e.grid.R, e.grid.C) == (4, 4)

    def test_needs_some_layout(self, rmat_graph):
        with pytest.raises(ValueError):
            Engine(rmat_graph)

    def test_load_balance_validation(self, rmat_graph):
        with pytest.raises(ValueError):
            Engine(rmat_graph, 4, load_balance="chaotic")

    def test_cluster_selection(self, rmat_graph):
        e = Engine(rmat_graph, 4, cluster=ZEPY)
        assert e.cluster.name == "zepy"


class TestState:
    def test_alloc_and_gather_roundtrip(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        vec = np.random.default_rng(0).random(rmat_graph.n_vertices)
        e.scatter_global("x", vec)
        assert np.allclose(e.gather("x"), vec)

    @pytest.mark.parametrize("grid", [Grid2D(R=1, C=4), Grid2D(R=3, C=5), Grid2D(R=4, C=4)])
    def test_scatter_global_fills_every_rank_s_windows(self, rmat_graph, grid):
        e = Engine(rmat_graph, grid=grid)
        vec = np.random.default_rng(1).integers(0, 9, rmat_graph.n_vertices)
        e.scatter_global("x", vec)
        for ctx in e:
            want = scatter_global(e.partition, vec, ctx.rank)
            assert ctx.get("x").dtype == vec.dtype
            assert ctx.get("x").tobytes() == want.tobytes()

    def test_scatter_global_refuses_a_vector_of_another_shape(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        n = rmat_graph.n_vertices
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 2))):
            with pytest.raises(ValueError, match="global vector has shape"):
                e.scatter_global("x", bad)

    def test_alloc_fill(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        for arr in e.alloc("y", np.float64, fill=3.5):
            assert np.all(arr == 3.5)

    def test_missing_state_keyerror(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        with pytest.raises(KeyError, match="no state array"):
            e.ctx(0).get("nope")

    def test_states_typo_lists_allocated_names(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        e.alloc("pr", np.float64)
        e.alloc("acc", np.float64)
        with pytest.raises(KeyError) as exc:
            e.states("pagerank")
        msg = str(exc.value)
        assert "'pagerank'" in msg
        assert "'acc'" in msg and "'pr'" in msg  # sorted listing

    def test_free_typo_lists_allocated_names(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        e.alloc("depth", np.int64)
        with pytest.raises(KeyError, match=r"allocated states: \['depth'\]"):
            e.free("depht")

    def test_gather_typo_lists_allocated_names(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        with pytest.raises(KeyError, match=r"allocated states: \[\]"):
            e.gather("missing")

    def test_free_releases_memory(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        e.alloc("z", np.float64)
        used = int(e.devices.allocated[0])
        e.free("z")
        assert e.devices.allocated[0] < used

    def test_realloc_same_shape_reuses(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        a = e.alloc("w", np.float64, fill=1.0)[0]
        b = e.alloc("w", np.float64, fill=2.0)[0]
        assert a is b
        assert np.all(b == 2.0)

    def test_refused_alloc_leaves_no_state_and_keeps_buffers(self):
        """A device charge that does not fit changes nothing on the
        host: no state of that name on any rank or in the arena, and
        the buffer the previous run kept is still there to refill."""
        e = Engine(rmat(8, seed=1), 4, enforce_memory=True)
        kept = e.alloc("y", np.int32)[0]
        e.reset_timers()
        free = e.devices.spec.memory_bytes - e.devices.allocated
        e.devices.charge({"ballast": free - 4 * e.fleet.n_total})
        with pytest.raises(DeviceMemoryError):
            e.alloc("x")
        assert not any("x" in ctx.arrays for ctx in e.contexts)
        assert not any("state.x" in ledger_entries(e.devices, ctx.rank) for ctx in e.contexts)
        with pytest.raises(KeyError):
            e.fleet.stacked("x")
        assert e.alloc("y", np.int32)[0] is kept


class TestAccounting:
    def test_charges_accumulate_and_reset(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        e.charge_vertices(0, 10_000)
        assert e.clocks.peak("clock") > 0
        e.reset_timers()
        assert e.clocks.peak("clock") == 0
        assert e.counters.total_calls == 0

    def test_manhattan_vs_vertex_balance(self):
        """The naive schedule charges more time on skewed queues."""
        g = rmat(10, seed=1)
        degs = None
        e_m = Engine(g, 1, load_balance="manhattan")
        e_v = Engine(g, 1, load_balance="vertex")
        q = e_m.ctx(0).local_degrees()
        e_m.charge_edges(0, q)
        e_v.charge_edges(0, q)
        assert e_v.clocks.peak("clock") > e_m.clocks.peak("clock")

    def test_memory_scale_and_enforcement(self, rmat_graph):
        # Model a footprint 10^7x bigger than the stand-in: must OOM.
        with pytest.raises(DeviceMemoryError):
            Engine(rmat_graph, 4, memory_scale=1e7, enforce_memory=True)

    def test_profile_swapping(self, rmat_graph):
        e = Engine(rmat_graph, 4, profile=GENERIC_PROFILE)
        assert e.costmodel.profile.name == "generic"

    def test_group_iterators(self, rmat_graph):
        e = Engine(rmat_graph, grid=Grid2D(R=3, C=2))
        rows = dict(e.row_groups())
        cols = dict(e.col_groups())
        assert len(rows) == 2 and len(cols) == 3
        assert rows[0] == [0, 1, 2]
        assert cols[2] == [2, 5]


class TestScheduleCache:
    def test_memoized_per_rank_and_key(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        degs = e.ctx(0).local_degrees()
        a = e.schedule_stats(degs, cache_key="pr.full", rank=0)
        b = e.schedule_stats(degs, cache_key="pr.full", rank=0)
        assert a is b
        # different rank or key computes its own entry
        c = e.schedule_stats(degs, cache_key="pr.full", rank=1)
        d = e.schedule_stats(degs, cache_key="cc.full", rank=0)
        assert c is not a and d is not a

    def test_uncached_matches_cached(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        degs = e.ctx(2).local_degrees()
        cached = e.schedule_stats(degs, cache_key="x.full", rank=2)
        fresh = e.schedule_stats(degs)
        assert fresh.total_edges == cached.total_edges
        assert fresh.balance == cached.balance

    def test_no_key_never_populates_cache(self, rmat_graph):
        e = Engine(rmat_graph, 4)
        e.schedule_stats(e.ctx(0).local_degrees())
        assert e._schedule_cache == {}


class TestScheduleCacheAcrossRegrids:
    @staticmethod
    def _count_schedules(monkeypatch):
        import repro.core.engine as engine_mod

        calls = {"n": 0}
        real = engine_mod.manhattan_schedule

        def counting(degrees):
            calls["n"] += 1
            return real(degrees)

        monkeypatch.setattr(engine_mod, "manhattan_schedule", counting)
        return calls

    def test_shrink_revisiting_grid_hits_warm_cache(self, rmat_graph, monkeypatch):
        from repro.comm.grid import square_grid

        calls = self._count_schedules(monkeypatch)
        e16 = Engine(rmat_graph, 16)
        for rank in range(16):
            e16.schedule_stats(
                e16.ctx(rank).local_degrees(), cache_key="pr.full", rank=rank
            )
        assert calls["n"] == 16

        # A regrid onto a different grid is a different scope: cold.
        e4 = e16.rebuild_on_grid(square_grid(4))
        for rank in range(4):
            e4.schedule_stats(
                e4.ctx(rank).local_degrees(), cache_key="pr.full", rank=rank
            )
        assert calls["n"] == 20

        # Regridding back onto the original grid finds that grid's
        # entries warm — the cache is shared across generations, not
        # rebuilt from cold (the pre-fix behavior).
        e16b = e4.rebuild_on_grid(square_grid(16))
        for rank in range(16):
            e16b.schedule_stats(
                e16b.ctx(rank).local_degrees(), cache_key="pr.full", rank=rank
            )
        assert calls["n"] == 20
        assert e16b._schedule_cache is e16._schedule_cache

    def test_grid_scopes_never_collide(self, rmat_graph, monkeypatch):
        from repro.comm.grid import square_grid

        calls = self._count_schedules(monkeypatch)
        e16 = Engine(rmat_graph, 16)
        degs = e16.ctx(0).local_degrees()
        e16.schedule_stats(degs, cache_key="x.full", rank=0)
        e4 = e16.rebuild_on_grid(square_grid(4))
        # same rank + key but a different grid must not reuse the entry
        # (the degree arrays differ between partitions).
        e4.schedule_stats(e4.ctx(0).local_degrees(), cache_key="x.full", rank=0)
        assert calls["n"] == 2


class TestOverlapConfig:
    def test_rebuild_preserves_overlap(self, rmat_graph):
        from repro.comm.grid import square_grid

        e = Engine(rmat_graph, 16, overlap=True)
        assert e.overlap is True
        new = e.rebuild_on_grid(square_grid(4))
        assert new.overlap is True
