"""The rank-stacked view (:mod:`repro.core.fleet`) and the vectorized
charging it feeds: every fused primitive against the per-rank code it
replaces, plus the bit-identity pitfalls recorded in PR 14."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, algorithms
from repro.cluster.config import AIMOS
from repro.comm.grid import Grid2D
from repro.core import fleet as fleet_mod
from repro.core.context import RankContext
from repro.faults import CheckpointManager
from repro.graph import Graph, rmat
from repro.reference.graphs import star_graph
from repro.reference.serial import scatter_reduce_reference
from repro.kernels import csr_pull
from repro.kernels import scatter as scatter_mod
from repro.queueing.manhattan import manhattan_schedule, vertex_per_thread_balance

from ..conftest import GRIDS, state_is_stacked

GRID_IDS = [f"{g.C}x{g.R}" for g in GRIDS]


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_blocks_are_slices_of_one_concatenated_csr(grid):
    part = Engine(rmat(7, seed=2).with_random_weights(seed=1), grid=grid).partition
    for blk in part.blocks:
        assert blk.indptr.base is part.indptr
        assert blk.indices.base is part.indices
        assert blk.weights.base is part.weights
        assert blk.indptr[0] == 0 and blk.indptr[-1] == blk.indices.size
    assert part.edge_offsets[-1] == part.n_edges == part.indices.size


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_state_is_allocated_stacked_and_seen_per_rank(grid):
    engine = Engine(rmat(7, seed=2), grid=grid)
    engine.alloc("x", np.float64, fill=3.0)
    assert state_is_stacked(engine, "x")
    buf = engine.fleet.stacked("x")
    assert buf.shape == (sum(ctx.n_total for ctx in engine),)
    buf[:] = np.arange(buf.size)
    for ctx in engine:
        lo = engine.fleet.base[ctx.rank]
        assert np.array_equal(ctx.get("x"), np.arange(lo, lo + ctx.n_total))
    lanes = engine.alloc("y", np.int32, width=3)
    assert lanes[0].shape == (engine.ctx(0).n_total, 3)
    assert engine.fleet.stacked("y").shape == (buf.size, 3)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_stack_split_and_expand_match_per_rank(grid):
    graph = rmat(7, seed=4).with_random_weights(seed=2)
    engine = Engine(graph, grid=grid)
    fleet = engine.fleet
    rng = np.random.default_rng(0)
    queues = [
        np.sort(rng.choice(ctx.row_lids(), size=rng.integers(0, ctx.localmap.n_row + 1), replace=False))
        for ctx in engine
    ]
    rows, counts = fleet.stack(queues)
    assert np.array_equal(counts, [q.size for q in queues])
    for got, want in zip(fleet.split(rows), queues):
        assert np.array_equal(got, want)
    assert np.array_equal(fleet.counts(rows), counts)
    assert np.array_equal(
        fleet.row_degrees(rows),
        np.concatenate(
            [ctx.local_degrees()[q - ctx.localmap.row_offset] for ctx, q in zip(engine, queues)]
        ),
    )
    for got, want in zip(_expanded(fleet.expand(rows)), _expanded_per_rank(engine, queues)):
        assert np.array_equal(got, want)
    # GID shifts agree with the per-rank arithmetic maps
    for ctx in engine:
        lm, lo = ctx.localmap, fleet.base[ctx.rank]
        assert fleet.row_gid_shift[ctx.rank] + lo + lm.row_offset == lm.row_start
        assert fleet.col_gid_shift[ctx.rank] + lo + lm.col_offset == lm.col_start
    assert np.array_equal(
        np.flatnonzero(fleet.row_mask),
        np.concatenate([ctx.row_lids() + fleet.base[ctx.rank] for ctx in engine]),
    )


# ----------------------------------------------------------------------
# stacked CSR operand of the pull kernel
# ----------------------------------------------------------------------
_PULL_OPS = {"sum": 0.0, "min": np.inf, "max": -np.inf}


def _per_rank_edge_list_pull(engine, name, op, weighted):
    """What the CSR pull replaces, rank by rank: gather the operand over
    the rank's expanded edge list, ``np.<op>.at`` it into an
    identity-filled state (per lane)."""
    out = []
    for ctx in engine:
        x = ctx.get(name)
        ex = ctx.expand(ctx.row_lids())
        src, dst, w = ex.src, ex.dst, ex.weights
        state = np.full(x.shape, _PULL_OPS[op])
        for lane in np.ndindex(x.shape[1:]):
            at = (slice(None),) + lane
            vals = x[at][dst] * w if weighted else x[at][dst]
            col = state[at].copy()
            scatter_reduce_reference(col, src, vals, op)
            state[at] = col
        out.append(state)
    return np.concatenate(out)


@pytest.mark.parametrize("width", [None, 3], ids=["1d", "lanes"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_csr_pull_over_the_fleet_equals_per_rank_edge_list_scatter(
    grid, weighted, width
):
    graph = rmat(7, seed=4).with_random_weights(seed=2)
    engine = Engine(graph, grid=grid)
    fleet = engine.fleet
    engine.alloc("x", np.float64, width=width)
    x = fleet.stacked("x")
    rng = np.random.default_rng(1)
    x[...] = rng.standard_normal(x.shape) * 10.0 ** rng.integers(-6, 6, size=x.shape)
    for op in _PULL_OPS:
        got = csr_pull(fleet.csr(weighted=weighted), x, op)
        want = _per_rank_edge_list_pull(engine, "x", op, weighted)
        assert got.tobytes() == want.tobytes(), op
        # LIDs outside a row window have no edges: a pull resets them
        assert np.all(got[~fleet.row_mask] == _PULL_OPS[op])


def test_csr_pull_with_fewer_vertices_than_ranks():
    graph = Graph.from_edges(np.array([0, 1]), np.array([1, 2]), 3)
    engine = Engine(graph, grid=Grid2D(R=4, C=4))
    engine.alloc("x", np.float64)
    x = engine.fleet.stacked("x")
    x[...] = np.arange(1.0, x.size + 1)
    for op in _PULL_OPS:
        assert np.array_equal(
            csr_pull(engine.fleet.csr(), x, op),
            _per_rank_edge_list_pull(engine, "x", op, False),
        )
    res = algorithms.pagerank(engine, iterations=4)
    from repro.reference import serial

    assert np.allclose(res.values, serial.pagerank(graph, 4), atol=1e-15)


def test_one_adjacency_array_shared_by_graph_layer_expansion_and_pull():
    """The partition's stacked-LID ``indices`` is the fleet's expansion
    block and the pull operand, not a rebased copy; a graph's SciPy view
    shares its ``int32`` ids."""
    graph = rmat(8, seed=3).with_random_weights(seed=1)
    engine = Engine(graph, grid=Grid2D(R=2, C=3))
    fleet, part = engine.fleet, engine.partition
    assert fleet.base is part.lid_offsets
    assert fleet._stacked_block().indices is part.indices
    assert fleet._stacked_block().lid_base == 0
    for weighted in (False, True):
        assert np.shares_memory(fleet.csr(weighted).matrix.indices, part.indices)
    assert np.shares_memory(graph.to_scipy().indices, graph.indices)


def test_wide_index_arrays_change_nothing(monkeypatch):
    """Past 2**31 ids every index array is int64: forced wide on a small
    graph, answers, clocks and counters equal the narrow run's."""
    from repro.graph import csr as csr_mod
    from repro.graph.partition import twod as twod_mod
    from repro.kernels import pull as pull_mod

    def run():
        graph = rmat(8, seed=5).with_random_weights(seed=2)
        engine = Engine(graph, grid=Grid2D(R=2, C=3))
        results = [
            algorithms.pagerank(engine, iterations=5),
            algorithms.bfs(engine, root=3),
            algorithms.connected_components(engine),
            algorithms.sssp(engine, root=3),
        ]
        return engine, results

    narrow_engine, narrow = run()
    for module in (csr_mod, twod_mod, pull_mod):
        monkeypatch.setattr(module, "index_dtype", lambda n_ids, n_entries: np.int64)
    wide_engine, wide = run()
    assert narrow_engine.partition.indices.dtype == np.int32
    assert wide_engine.partition.indices.dtype == np.int64
    assert wide_engine.graph.indices.dtype == np.int64
    for got, want in zip(wide, narrow):
        assert got.values.tobytes() == want.values.tobytes()
        assert got.timings == want.timings and got.counters == want.counters


class TestFleetCsrView:
    def test_built_lazily_once_and_shared_between_forms(self):
        engine = Engine(rmat(7, seed=2).with_random_weights(seed=1), 4)
        fleet = engine.fleet
        algorithms.bfs(engine, root=1)
        assert fleet._csr == {}  # BFS-only runs never pay for the view
        unit = fleet.csr()
        assert fleet.csr() is unit and unit.unit
        weighted = fleet.csr(weighted=True)
        assert fleet.csr(weighted=True) is weighted and not weighted.unit
        assert np.shares_memory(weighted.matrix.indices, unit.matrix.indices)
        assert unit.matrix.indices.dtype == unit.matrix.indptr.dtype == np.int32
        assert np.shares_memory(weighted.matrix.data, engine.partition.weights)
        assert unit.matrix.shape == (fleet.size, fleet.size)

    def test_weighted_view_needs_weights(self):
        with pytest.raises(ValueError, match="edge-weighted"):
            Engine(rmat(6, seed=2), 4).fleet.csr(weighted=True)

    def test_rebuild_on_grid_gets_its_own_view(self):
        engine = Engine(rmat(7, seed=2), grid=Grid2D(R=2, C=2))
        old = engine.fleet.csr()
        new = engine.rebuild_on_grid(Grid2D(R=3, C=1))
        assert new.fleet.csr() is not old
        assert new.fleet.csr().matrix.shape[0] == new.fleet.size
        assert new.fleet.csr().matrix.nnz == old.matrix.nnz

    @pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
    def test_full_queue_is_every_rank_row_window(self, grid):
        engine = Engine(rmat(7, seed=4), grid=grid)
        degrees, rows_per_rank = engine.fleet.full_queue()
        assert np.array_equal(
            degrees, np.concatenate([ctx.local_degrees() for ctx in engine])
        )
        assert rows_per_rank.tolist() == [ctx.localmap.n_row for ctx in engine]


# ----------------------------------------------------------------------
# pitfall (f): bounded expansion temporaries
# ----------------------------------------------------------------------
def test_expansion_walks_in_slices_under_the_edge_budget(monkeypatch):
    graph = star_graph(40)  # one hub row far above a tiny budget
    engine = Engine(graph, grid=Grid2D(R=2, C=2))
    fleet = engine.fleet
    rows = np.flatnonzero(fleet.row_mask)
    whole = [np.concatenate(col) for col in zip(*fleet.expand(rows))]
    monkeypatch.setattr(fleet_mod, "EXPAND_EDGE_BUDGET", 8)
    pieces = list(fleet.expand(rows))
    assert len(pieces) > 4
    for _, src, _ in pieces:
        assert src.size <= 8 or np.unique(src).size == 1  # a hub travels alone
    sliced = [np.concatenate(col) for col in zip(*pieces)]
    for a, b in zip(whole, sliced):
        assert np.array_equal(a, b)


def _expanded(pieces):
    """Concatenated ``(ranks, src, dst)`` of ``Fleet.expand`` slices
    (three empty columns when nothing was yielded)."""
    pieces = list(pieces)
    if not pieces:
        return [np.empty(0, dtype=np.int64)] * 3
    return [np.concatenate(col) for col in zip(*pieces)]


def _expanded_per_rank(engine, queues):
    """The same three columns from every rank's own ``ctx.expand``."""
    base = engine.fleet.base
    want = [ctx.expand(q) for ctx, q in zip(engine, queues)]
    return [
        np.repeat(np.arange(engine.n_ranks), [ex.dst.size for ex in want]),
        np.concatenate([ex.src + base[r] for r, ex in enumerate(want)]),
        np.concatenate([ex.dst + base[r] for r, ex in enumerate(want)]),
    ]


@pytest.mark.parametrize("budget", [None, 16], ids=["one-slice", "crosses-budget"])
@pytest.mark.parametrize("queue", ["mixed", "all-empty", "no-rows"])
@pytest.mark.parametrize("given_degrees", [False, True], ids=["lookup", "passed"])
def test_expand_skips_rows_without_edges(monkeypatch, budget, queue, given_degrees):
    """Rows without a local edge (a quarter of the rows of these 4x4
    blocks, two thirds at 16x16 on the benchmark's graph) are dropped
    before the expansion; nothing a caller sees changes, whether or not
    it hands its degrees in."""
    engine = Engine(rmat(7, seed=4).with_random_weights(seed=2), grid=Grid2D(R=4, C=4))
    fleet = engine.fleet
    if budget is not None:
        monkeypatch.setattr(fleet_mod, "EXPAND_EDGE_BUDGET", budget)
    degrees_of = [ctx.local_degrees() for ctx in engine]
    queues = {
        "mixed": [ctx.row_lids() for ctx in engine],
        "all-empty": [ctx.row_lids()[d == 0] for ctx, d in zip(engine, degrees_of)],
        "no-rows": [ctx.row_lids()[:0] for ctx in engine],
    }[queue]
    rows, _ = fleet.stack(queues)
    degrees = fleet.row_degrees(rows)
    if queue == "mixed":
        assert 0 < np.count_nonzero(degrees) <= 0.8 * degrees.size
        assert degrees.sum() > 16  # several slices under the small budget
    elif queue == "all-empty":
        assert rows.size > 0 and not degrees.any()
    pieces = list(fleet.expand(rows, degrees if given_degrees else None))
    if budget is not None:
        assert all(src.size <= budget or np.unique(src).size == 1 for _, src, _ in pieces)
        assert len(pieces) > 1 or queue != "mixed"  # the budget boundary is crossed
    for got, want in zip(_expanded(pieces), _expanded_per_rank(engine, queues)):
        assert np.array_equal(got, want)


def test_row_degrees_come_from_one_cached_read_only_array():
    fleet = Engine(rmat(7, seed=4), grid=Grid2D(R=2, C=4)).fleet
    degrees = fleet.local_degrees()
    assert fleet.local_degrees() is degrees and not degrees.flags.writeable
    assert degrees.dtype == np.int32 and degrees.size == fleet.size
    assert not degrees[~fleet.row_mask].any()
    rows = np.flatnonzero(fleet.row_mask)[::3]
    assert fleet.row_degrees(rows).base is None  # a gather, not a view of the cache
    assert np.array_equal(fleet.row_degrees(rows), degrees[rows])


@pytest.mark.parametrize("distribution", ["striped", "random"])
@pytest.mark.parametrize("hybrid", [True, False])
def test_bfs_is_unchanged_by_the_slice_size(monkeypatch, hybrid, distribution):
    """Slices are a memory bound, not a semantic: the same elements go
    through the same reductions.  Under the random distribution a
    rank's candidate parents are not ascending in queue order, so a
    slice that treated an earlier slice's claim as "visited" would keep
    a larger parent (striped hides that: the first claim is the MIN)."""
    import repro.kernels as kernels_mod

    scattered = []
    real = kernels_mod.scatter_reduce

    def spy(state, lids, vals, op="min"):
        scattered.append(np.asarray(lids).size)
        return real(state, lids, vals, op)

    for module in ("repro.algorithms.bfs", "repro.patterns.sparse"):
        monkeypatch.setattr(sys.modules[module], "scatter_reduce", spy)

    def run(graph, root):
        scattered.clear()
        engine = Engine(graph, grid=Grid2D(R=2, C=3), distribution=distribution, seed=4)
        return algorithms.bfs(engine, root=root, hybrid=hybrid), sum(scattered)

    for seed in range(4):
        graph = rmat(8, seed=seed)
        for root in (1, 9):
            want, want_elems = run(graph, root)
            monkeypatch.setattr(fleet_mod, "EXPAND_EDGE_BUDGET", 4)
            got, got_elems = run(graph, root)
            monkeypatch.undo()
            for module in ("repro.algorithms.bfs", "repro.patterns.sparse"):
                monkeypatch.setattr(sys.modules[module], "scatter_reduce", spy)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.extra["levels"], want.extra["levels"])
            assert got.timings == want.timings
            assert got.counters == want.counters
            assert got_elems == want_elems


# ----------------------------------------------------------------------
# segmented schedule == the schedule of each segment
# ----------------------------------------------------------------------
_sizes = st.sampled_from([0, 0, 1, 2, 31, 32, 33, 255, 256, 257, 511, 512, 513, 700])


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(_sizes, min_size=1, max_size=7),
    hub=st.integers(min_value=0, max_value=10**7),
    seed=st.integers(min_value=0, max_value=2**31),
    naive=st.booleans(),
)
def test_segmented_schedule_equals_per_segment_schedule(sizes, hub, seed, naive):
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, 40, size=sum(sizes))
    if degrees.size:
        degrees[rng.integers(0, degrees.size)] = hub
    schedule = vertex_per_thread_balance if naive else manhattan_schedule
    stats = schedule(degrees, segments=np.array(sizes))
    start = 0
    for i, size in enumerate(sizes):
        one = schedule(degrees[start : start + size])
        start += size
        assert one.total_edges == stats.total_edges[i]
        assert one.n_blocks == stats.n_blocks[i]
        assert one.max_thread_edges == stats.max_thread_edges[i]
        assert one.balance == stats.balance[i]  # exact: same division


def test_segmented_schedule_keeps_the_validation():
    # pitfall (b)
    with pytest.raises(ValueError, match="negative degree"):
        manhattan_schedule(np.array([3, -1, 2]), segments=np.array([1, 2]))
    with pytest.raises(ValueError, match="segments"):
        manhattan_schedule(np.array([3, 1, 2]), segments=np.array([1, 1]))


# ----------------------------------------------------------------------
# vector kernel_time / charges == scalar
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    n_vertices=st.lists(st.integers(0, 10**9), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**31),
    work_per_edge=st.sampled_from([1.0, 4.0, 0.37]),
    launches=st.integers(1, 3),
)
def test_vector_kernel_time_equals_scalar(n_vertices, seed, work_per_edge, launches):
    engine = Engine(star_graph(4), 1)
    rng = np.random.default_rng(seed)
    k = len(n_vertices)
    n_edges = rng.integers(0, 10**10, size=k)
    balance = np.maximum(rng.random(k), 1e-6)
    balance[rng.random(k) < 0.3] = 1.0
    vec = engine.costmodel.kernel_time(
        n_vertices=np.array(n_vertices),
        n_edges=n_edges,
        work_per_edge=work_per_edge,
        balance=balance,
        launches=launches,
    )
    for i in range(k):
        one = engine.costmodel.kernel_time(
            n_vertices=n_vertices[i],
            n_edges=int(n_edges[i]),
            work_per_edge=work_per_edge,
            balance=float(balance[i]),
            launches=launches,
        )
        assert one == vec[i]


def test_vector_kernel_time_keeps_the_balance_check():
    # pitfall (b)
    costmodel = Engine(star_graph(4), 1).costmodel
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="balance"):
            costmodel.kernel_time(n_edges=np.array([1, 1]), balance=np.array([1.0, bad]))


@pytest.mark.parametrize("load_balance", ["manhattan", "vertex"])
@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_fleet_charges_equal_per_rank_charges_in_sequence(grid, load_balance):
    """Pitfalls (a) and (c): several charges per rank per phase land in
    the same sequence, empty queues still pay their launch, and ranks
    without a single 256-block get no reduceat start."""
    graph = rmat(9, seed=3)
    fused = Engine(graph, grid=grid, load_balance=load_balance)
    serial = Engine(graph, grid=grid, load_balance=load_balance)
    rng = np.random.default_rng(1)
    for step in range(3):
        queues = []
        for ctx in fused:
            n_row = ctx.localmap.n_row
            take = 0 if rng.random() < 0.4 else int(rng.integers(0, n_row + 1))
            queues.append(np.sort(rng.choice(ctx.row_lids(), size=take, replace=False)))
        rows, counts = fused.fleet.stack(queues)
        fused.charge_edges(
            None, fused.fleet.row_degrees(rows), work_per_edge=1.5,
            extra_vertices=step, segments=counts,
        )
        fused.charge_vertices(None, counts)
        fused.charge_vertices(None, fused.fleet.n_total, launches=2)
        for ctx, q in zip(serial, queues):
            degs = ctx.local_degrees()[q - ctx.localmap.row_offset]
            serial.charge_edges(ctx.rank, degs, work_per_edge=1.5, extra_vertices=step)
            serial.charge_vertices(ctx.rank, q.size)
            serial.charge_vertices(ctx.rank, ctx.n_total, launches=2)
        assert np.array_equal(fused.clocks.clock, serial.clocks.clock)
        assert np.array_equal(fused.clocks.compute, serial.clocks.compute)
    launch = AIMOS.gpu.kernel_launch_s
    assert fused.clocks.compute.min() >= 3 * 4 * launch  # nobody skipped a launch


def test_add_compute_all_validates():
    clocks = Engine(star_graph(6), 4).clocks
    with pytest.raises(ValueError, match="one compute time per rank"):
        clocks.add_compute_all(np.zeros(3))
    with pytest.raises(ValueError, match="negative"):
        clocks.add_compute_all(np.array([0.0, 1.0, -1.0, 0.0]))


# ----------------------------------------------------------------------
# pitfall (d): scatter regime on a p-times-longer state
# ----------------------------------------------------------------------
def test_tiny_queue_does_not_copy_the_whole_stacked_state(monkeypatch):
    """``scatter_reduce`` picks its regime from ``state.shape[0]``; the
    root step of a BFS on many ranks must stay in the sparse regime (the
    dense one snapshots the whole stacked state)."""
    seen = []
    real = scatter_mod.scatter_reduce

    def spy(state, lids, vals, op="min"):
        seen.append((np.asarray(lids).size, state.shape[0]))
        return real(state, lids, vals, op)

    # (`repro.algorithms.bfs` the attribute is the function)
    for module in ("repro.algorithms.bfs", "repro.patterns.sparse"):
        monkeypatch.setattr(sys.modules[module], "scatter_reduce", spy)
    graph = rmat(10, seed=7)
    root = int(np.argmax(graph.degrees() == 2))
    engine = Engine(graph, 64)
    algorithms.bfs(engine, root=root)
    n_lids, n_state = seen[0]  # the root's own expansion
    assert n_state == engine.fleet.size
    assert 0 < n_lids < scatter_mod._DENSE_FRACTION * n_state
    # and both regimes agree anyway
    for lids_size in (3, n_state // 2):
        rng = np.random.default_rng(lids_size)
        lids = rng.integers(0, n_state, size=lids_size)
        vals = rng.random(lids_size)
        a, b = np.full(n_state, 0.5), np.full(n_state, 0.5)
        assert np.array_equal(
            real(a, lids, vals, "min"), scatter_reduce_reference(b, lids, vals, "min")
        )
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# pitfall (g): the per-rank arrays never drift from the live buffer
# ----------------------------------------------------------------------
class TestArraysStayLiveSlices:
    def _engine(self):
        return Engine(rmat(7, seed=2), grid=Grid2D(R=2, C=3))

    def test_free_everywhere_releases_the_buffer(self):
        engine = self._engine()
        engine.alloc("x")
        buf = engine.fleet.stacked("x")
        engine.free("x")
        with pytest.raises(KeyError):
            engine.fleet.stacked("x")
        engine.alloc("x")
        assert engine.fleet.stacked("x") is not buf and state_is_stacked(engine, "x")

    def test_realloc_with_another_dtype_everywhere(self):
        engine = self._engine()
        engine.alloc("x", np.float64)
        engine.alloc("x", np.int64, fill=4)
        assert engine.fleet.stacked("x").dtype == np.int64
        assert state_is_stacked(engine, "x")

    def test_restore_after_a_free(self):
        engine = self._engine()
        mgr = CheckpointManager(interval=1)
        engine.attach_checkpoints(mgr)
        algorithms.bfs(engine, root=1)
        saved = {n: [ctx.get(n).copy() for ctx in engine] for n in ("parent", "level", "deg")}
        ckpt = mgr.latest()
        engine.free("level")
        engine.alloc("parent", np.float32)
        engine.alloc("scratch")
        engine.restore(ckpt)
        assert not any("scratch" in ctx.arrays for ctx in engine)
        for name, arrays in saved.items():
            assert state_is_stacked(engine, name)
            for ctx, arr in zip(engine, arrays):
                assert np.array_equal(ctx.get(name), arr)
                assert ctx.get(name).dtype == arr.dtype

    def test_rebuild_on_grid_gets_its_own_arena(self):
        engine = self._engine()
        engine.alloc("x", fill=1.0)
        new = engine.rebuild_on_grid(Grid2D(R=3, C=1))
        assert new.fleet is not engine.fleet and new.fleet.n_ranks == 3
        new.alloc("x", fill=2.0)
        assert state_is_stacked(new, "x") and state_is_stacked(engine, "x")
        assert np.all(engine.fleet.stacked("x") == 1.0)


def test_the_fleet_is_the_only_owner_of_state():
    """State is allocated for every rank at once and only the fleet
    holds it: a rank's ``arrays`` cannot be written to, and neither the
    contexts nor the fleet keep a per-rank registry to re-verify."""
    engine = Engine(rmat(7, seed=2), grid=Grid2D(R=2, C=3))
    engine.alloc("x", fill=1.0)
    ctx = engine.ctx(1)
    for mutate in (
        lambda arrays: arrays.__setitem__("x", np.zeros(ctx.n_total)),
        lambda arrays: arrays.clear(),
        lambda arrays: arrays.pop("x"),
    ):
        with pytest.raises((TypeError, AttributeError)):
            mutate(ctx.arrays)
    assert state_is_stacked(engine, "x") and np.all(engine.fleet.stacked("x") == 1.0)
    for name in ("alloc", "adopt", "free", "begin_run"):
        assert not hasattr(RankContext, name), name
    for name in ("generation", "refill", "moved"):
        assert not hasattr(engine.fleet, name), name


def test_hub_and_empty_ranks_graph_matches_reference():
    """A frontier that is empty on most ranks, a hub above the 256
    block size, ranks with no edges: fused BFS against the serial
    oracle, top-down and hybrid."""
    from repro.reference import serial

    n = 700
    hub_edges = (np.zeros(n - 1, dtype=np.int64), np.arange(1, n))
    graph = Graph.from_edges(*hub_edges, n)
    for hybrid in (True, False):
        res = algorithms.bfs(Engine(graph, grid=Grid2D(R=4, C=4)), root=n - 1, hybrid=hybrid)
        assert np.array_equal(res.extra["levels"], serial.bfs_levels(graph, n - 1))
        assert serial.bfs_parents_valid(graph, n - 1, res.values)


# ----------------------------------------------------------------------
# grid-independent queues (checkpoint loop state)
# ----------------------------------------------------------------------
def _row_group_queue(engine, cells, lanes, seed):
    """A row-group-consistent per-rank queue holding ``cells`` (original
    ids) in ``lanes`` (``None``: a plain queue): per row group the lanes
    interleave in a random order, each lane's LIDs ascending."""
    part, fleet = engine.partition, engine.fleet
    rng = np.random.default_rng(seed)
    gids = part.perm[cells].astype(np.int64)
    lane_of = np.zeros(cells.size, np.int64) if lanes is None else lanes
    queue = [None] * engine.n_ranks
    for id_r, ranks in engine.row_groups():
        lo, hi = part.row_offsets[id_r], part.row_offsets[id_r + 1]
        mine = np.flatnonzero((gids >= lo) & (gids < hi))
        pattern = rng.permutation(lane_of[mine])
        order = np.lexsort((gids[mine], lane_of[mine]))
        slots = np.lexsort((np.arange(pattern.size), pattern))
        group_gids = np.empty(mine.size, np.int64)
        group_gids[slots] = gids[mine][order]
        for r in ranks:
            lids = group_gids - (fleet.base[r] + fleet.row_gid_shift[r])
            queue[r] = lids if lanes is None else (lids, pattern)
    return queue


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(GRIDS),
    st.sampled_from(GRIDS),
    st.integers(0, 2**31),
    st.sampled_from([None, 1, 3]),
)
def test_queues_cross_a_regrid_by_original_id(grid_a, grid_b, seed, k):
    """On the saving layout a decoded queue is the saved one, entry for
    entry; on another layout every rank gets exactly the saved cells of
    its row window, each lane's LIDs ascending."""
    graph = rmat(6, seed=4)
    rng = np.random.default_rng(seed)
    n = graph.n_vertices
    cells = np.unique(rng.integers(0, n, size=rng.integers(0, 2 * n)))
    lanes = None if k is None else rng.integers(0, k, size=cells.size)
    a, b = Engine(graph, grid=grid_a), Engine(graph, grid=grid_b)
    queue = _row_group_queue(a, cells, lanes, seed)
    saved = a.fleet.encode_queue(queue)

    for got, want in zip(a.fleet.decode_queue(saved), queue):
        for g, w in zip(got, want) if k else [(got, want)]:
            assert g.dtype == np.int64 and np.array_equal(g, w)

    fleet = b.fleet
    lane_of = np.zeros(cells.size, np.int64) if lanes is None else lanes
    for r, entry in enumerate(fleet.decode_queue(saved)):
        lids, got_lanes = entry if k else (entry, np.zeros(entry.size, np.int64))
        orig = b.partition.original_gid(lids + fleet.base[r] + fleet.row_gid_shift[r])
        rel = b.partition.perm[cells]
        mine = (rel >= fleet.row_start[r]) & (rel < fleet.row_stop[r])
        assert sorted(zip(orig.tolist(), got_lanes.tolist())) == sorted(
            zip(cells[mine].tolist(), lane_of[mine].tolist())
        )
        for lane in np.unique(got_lanes):
            assert np.all(np.diff(lids[got_lanes == lane]) > 0)
