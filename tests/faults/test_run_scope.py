"""Run-owned state: a run begins with an empty arena.

A run starts at ``Engine.reset_timers()``, which frees every state
array an earlier run allocated and releases its ``state.*`` entry on
every device ledger.  The checkpoint, the integrity ledger and memflip
injection read ``RankContext.arrays`` — so a guarded run on a reused
engine is the run a fresh engine would have made: same answer, same
modeled time, same ledger rows, same checkpoint contents, same memflip
targets, same device ledgers.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, algorithms
from repro.baselines.spmv import spmv_bfs, spmv_cc, spmv_pagerank
from repro.faults import (
    CheckpointManager,
    FaultPlan,
    FaultSpec,
    HealthMonitor,
    IntegrityFailure,
    IntegrityLedger,
    apply_memflip,
    drive_elastic,
)
from repro.faults.integrity import _owned_segments
from repro.graph import rmat

from ..conftest import ledger_entries, rank_order

GRAPH = rmat(8, seed=5).with_random_weights(seed=5)

#: Every public entry point, as a first run before the one under test.
ENTRY_POINTS = {
    "bfs": lambda e: algorithms.bfs(e, root=3),
    "pagerank": lambda e: algorithms.pagerank(e, iterations=3),
    "connected_components": algorithms.connected_components,
    "sssp": lambda e: algorithms.sssp(e, root=3),
    "label_propagation": lambda e: algorithms.label_propagation(e, iterations=3),
    "pointer_jumping": algorithms.pointer_jumping,
    "max_weight_matching": algorithms.max_weight_matching,
    "greedy_coloring": algorithms.greedy_coloring,
    "core_numbers": algorithms.core_numbers,
    "triangle_count": algorithms.triangle_count,
    "betweenness": lambda e: algorithms.betweenness(e, sources=[3, 17]),
    "bfs_batch": lambda e: algorithms.bfs_batch(e, [3, 17]),
    "sssp_batch": lambda e: algorithms.sssp_batch(e, [3, 17]),
    "spmv_pagerank": lambda e: spmv_pagerank(e, iterations=3),
    "spmv_cc": spmv_cc,
    "spmv_bfs": lambda e: spmv_bfs(e, root=3),
}


def guard(engine, health=False):
    """Verify and checkpoint at every boundary."""
    engine.attach_integrity(IntegrityLedger(interval=1))
    engine.attach_checkpoints(CheckpointManager(interval=1))
    if health:
        engine.attach_health(HealthMonitor())
    return engine


@pytest.mark.parametrize("first", sorted(ENTRY_POINTS))
def test_no_left_over_trips_a_later_guarded_run(first):
    """Whatever ran before — ``pointer_jumping`` fills ``pj`` on its row
    windows only — a guarded CC on the same engine verifies clean,
    returns the fresh-engine answer and holds only CC's state."""
    engine = Engine(GRAPH, 9)
    ENTRY_POINTS[first](engine)
    res = algorithms.connected_components(guard(engine))
    fresh = Engine(GRAPH, 9)
    want = algorithms.connected_components(fresh)
    assert np.array_equal(res.values, want.values)
    assert all(row.ok for row in engine.integrity.rows)
    for ctx, ref in zip(engine.contexts, fresh.contexts):
        assert sorted(ctx.arrays) == sorted(ref.arrays)
        assert ledger_entries(engine.devices, ctx.rank) == ledger_entries(
            fresh.devices, ref.rank
        )


# ----------------------------------------------------------------------
# history independence
# ----------------------------------------------------------------------
RUNS = {
    short: ENTRY_POINTS[name]
    for short, name in [
        ("CC", "connected_components"),
        ("PR", "pagerank"),
        ("BFS", "bfs"),
        ("SSSP", "sssp"),
        ("bfs_batch", "bfs_batch"),
    ]
}


def observed(engine, res):
    """Everything a guarded run lets out besides its values."""
    t = engine.timing_report()
    return {
        "timing": (
            t.total, t.compute, t.comm, t.certify, t.recovery, t.per_iteration,
        ),
        "counters": res.counters,
        "ledger": dict(engine.integrity.stats),
        "fingerprints": [row.fingerprint for row in engine.integrity.rows],
        "checkpointed": sorted(engine.checkpoints.latest().state),
        "values": np.asarray(res.values).tobytes(),
    }


@functools.lru_cache(maxsize=None)
def on_a_fresh_engine(run):
    engine = guard(Engine(GRAPH, 9), health=True)
    return observed(engine, RUNS[run](engine))


#: The reused engine's host rank order by test id (``threads:4``: the
#: id of the thread-pool leg the reversed leg replaced); the fresh
#: reference always runs forward.
ORDERS = {"serial": "forward", "threads:4": "reversed"}


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
@pytest.mark.parametrize("second", sorted(RUNS))
@pytest.mark.parametrize("first", sorted(RUNS))
def test_a_run_does_not_depend_on_the_engine_s_history(first, second, order):
    engine = guard(Engine(GRAPH, 9), health=True)
    with rank_order(order):
        RUNS[first](engine)
        got = observed(engine, RUNS[second](engine))
    want = on_a_fresh_engine(second)
    for field in want:
        assert got[field] == want[field], field


def test_a_run_begins_with_an_empty_arena_and_released_state_entries():
    engine = guard(Engine(GRAPH, 9))
    baseline = [ledger_entries(engine.devices, ctx.rank) for ctx in engine.contexts]
    algorithms.pagerank(engine, iterations=4)
    assert all(engine.devices.bytes[engine.devices.rows["state.pr"]] > 0)
    engine.reset_timers()
    for ctx, ledger in zip(engine.contexts, baseline):
        assert ctx.arrays == {}
        assert ledger_entries(engine.devices, ctx.rank) == ledger  # graph structure only
    algorithms.bfs(engine, root=3)
    for ctx in engine.contexts:
        assert sorted(ctx.arrays) == ["level", "parent"]
        held = ledger_entries(engine.devices, ctx.rank)
        assert sorted(k for k in held if k.startswith("state.")) == [
            "state.level", "state.parent",
        ]


def test_a_stale_read_names_the_run_boundary():
    """Reading a state the current run did not allocate fails loudly,
    and says why it is gone."""
    engine = Engine(GRAPH, 4)
    algorithms.pagerank(engine, iterations=2)
    algorithms.bfs(engine, root=3)
    with pytest.raises(KeyError, match=r"'pr'.*dropped.*reset_timers"):
        engine.gather("pr")
    with pytest.raises(KeyError, match=r"'acc'.*dropped.*reset_timers"):
        engine.fleet.stacked("acc")


# ----------------------------------------------------------------------
# the run's arrays
# ----------------------------------------------------------------------
class TestRunArrays:
    def test_everything_is_the_run_s_until_a_run_begins(self):
        engine = Engine(GRAPH, 4)
        engine.alloc("x")
        ctx = engine.ctx(0)
        assert "x" in ctx.arrays and "state.x" in ledger_entries(engine.devices, ctx.rank)
        engine.reset_timers()
        assert ctx.arrays == {}
        assert "state.x" not in ledger_entries(engine.devices, ctx.rank)

    @pytest.mark.parametrize(
        "register, kept",
        [
            (lambda e: e.alloc("x"), True),  # same form: the kept buffer, refilled
            (lambda e: e.alloc("x", np.int32), False),
            (lambda e: e.alloc("x", width=2), False),
        ],
        ids=["alloc-in-place", "alloc-dtype", "alloc-lanes"],
    )
    def test_registering_a_left_over_name_again_makes_it_the_run_s(self, register, kept):
        engine = Engine(GRAPH, 4)
        engine.alloc("x")
        engine.alloc("y")
        old = engine.fleet.stacked("x")
        engine.reset_timers()
        register(engine)
        assert (engine.fleet.stacked("x") is old) == kept
        for ctx in engine.contexts:
            assert list(ctx.arrays) == ["x"]
            assert ledger_entries(engine.devices, ctx.rank)["state.x"] == ctx.arrays["x"].nbytes
            assert "state.y" not in ledger_entries(engine.devices, ctx.rank)
        engine.free("x")
        assert all(ctx.arrays == {} for ctx in engine.contexts)
        engine.alloc("new")
        assert list(engine.ctx(1).arrays) == ["new"]

    def test_engine_alloc_in_one_pass_makes_it_the_run_s(self):
        """``Engine.alloc`` of a state the run already holds fills the
        fleet's stacked buffer in place (a previous run's is gone), and
        the arrays are the run's: checkpointed, verified, and a flipped
        bit in them caught."""
        engine = guard(Engine(GRAPH, 9))
        engine.alloc("x", fill=1.0)
        engine.alloc("y")
        engine.reset_timers()
        first = engine.alloc("x", fill=3.0)
        buf = engine.fleet.stacked("x")
        again = engine.alloc("x", fill=2.0)
        assert engine.fleet.stacked("x") is buf
        for ctx, a, b in zip(engine.contexts, first, again):
            assert a is b is ctx.arrays["x"] and (b == 2.0).all()
            assert list(ctx.arrays) == ["x"]
        engine.superstep_boundary("probe", dict)
        assert engine.integrity.rows[-1].ok
        assert engine.integrity.stats["windows_hashed"] > 0
        saved = engine.checkpoints.latest().state
        assert sorted(saved) == ["x"] and (saved["x"] == 2.0).all()
        assert apply_memflip(engine.ctx(4), FaultSpec("memflip", 2, rank=4, bit=5)) == 1
        engine.checkpoints.clear()  # nothing to roll back to: the ledger raises
        with pytest.raises(IntegrityFailure):
            engine.superstep_boundary("probe", dict)

    def test_a_rollback_leaves_exactly_the_checkpoint_s_arrays(self):
        engine = guard(Engine(GRAPH, 9))
        algorithms.pagerank(engine, iterations=3)
        algorithms.bfs(engine, root=3)
        ckpt = engine.checkpoints.latest()
        engine.restore(ckpt)
        assert sorted(ckpt.state) == ["level", "parent"]
        for ctx in engine.contexts:
            assert sorted(ctx.arrays) == sorted(ckpt.state)


# ----------------------------------------------------------------------
# injection and recovery on a reused engine
# ----------------------------------------------------------------------
def _bfs_state(reused):
    engine = Engine(GRAPH, 9)
    if reused:
        algorithms.pagerank(engine, iterations=3)
        algorithms.label_propagation(engine, iterations=2)
    algorithms.bfs(engine, root=3)
    return engine


FRESH, REUSED = _bfs_state(False), _bfs_state(True)


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(0, 8), bit=st.integers(0, 1 << 20), count=st.integers(1, 3))
def test_memflip_addresses_the_run_s_windows_only(rank, bit, count):
    """The same spec flips the same bits of the same run array as on a
    fresh engine: the reused engine holds exactly the run's arrays."""
    spec = FaultSpec("memflip", 1, rank=rank, bit=bit, count=count)
    fresh, reused = FRESH.ctx(rank), REUSED.ctx(rank)
    assert set(reused.arrays) == set(fresh.arrays)
    assert sum(s.nbytes for s in _owned_segments(reused)) == sum(
        s.nbytes for s in _owned_segments(fresh)
    )
    before = {name: arr.copy() for name, arr in reused.arrays.items()}
    assert apply_memflip(reused, spec) == apply_memflip(fresh, spec) == count
    changed = {
        name
        for name, arr in reused.arrays.items()
        if arr.tobytes() != before[name].tobytes()
    }
    assert len(changed) >= 1
    for name in changed:
        assert reused.arrays[name].tobytes() == fresh.arrays[name].tobytes()
    # XOR is its own inverse: leave both engines as they were
    apply_memflip(reused, spec), apply_memflip(fresh, spec)
    assert all(
        reused.arrays[name].tobytes() == before[name].tobytes() for name in before
    )


def _clock_state(engine):
    return {
        lane: value.tobytes() if isinstance(value, np.ndarray) else value
        for lane, value in engine.clocks.state_dict().items()
    }


def test_memflip_single_is_repaired_on_a_reused_engine():
    """The campaign's ``memflip-single`` BFS case, on an engine that ran
    PageRank first: the flip lands in BFS state (sorted-name bit 137
    would be inside PageRank's ``acc`` if it outlived its run), is
    caught at its boundary, repaired by one rollback, and the run is
    the fault-free fresh-engine run bit for bit."""
    fresh = guard(Engine(GRAPH, 9))
    want = algorithms.bfs(fresh, root=0)

    engine = guard(Engine(GRAPH, 9))
    algorithms.pagerank(engine, iterations=3)
    engine.attach_faults(FaultPlan([FaultSpec("memflip", 2, rank=1, bit=137)]))
    got = drive_elastic(lambda e, r: algorithms.bfs(e, root=0, resume=r), engine)

    assert got.extra["elastic"]["resumes"] == 1 and engine.integrity.repairs == 1
    kinds = [(e["kind"], e["superstep"]) for e in engine.fault_events]
    assert kinds == [("memflip", 2), ("integrity", 2)]
    assert engine.fault_events[1]["suspects"] == [1]
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.extra["levels"], want.extra["levels"])
    assert got.counters == want.counters
    assert _clock_state(engine) == _clock_state(fresh)
    for ctx in engine.contexts:
        assert sorted(ctx.arrays) == ["level", "parent"]


# ----------------------------------------------------------------------
# what a run's arena holds
# ----------------------------------------------------------------------
def _personalized(e):
    return algorithms.pagerank(
        e, iterations=3, personalization=np.arange(e.partition.n_vertices) % 3
    )


#: The arena's names at every superstep boundary of a run: loop state
#: only.  The degrees are graph structure (``Fleet.cell_degrees``) and
#: a dense pull's operand is scratch (``Engine.scratch``), so neither is
#: saved, verified or a memflip target.
STATE_SETS = {
    "bfs": (ENTRY_POINTS["bfs"], ["level", "parent"]),
    "bfs_batch": (ENTRY_POINTS["bfs_batch"], ["level", "parent"]),
    "pagerank": (ENTRY_POINTS["pagerank"], ["pr"]),
    "pagerank_weighted": (
        lambda e: algorithms.pagerank(e, iterations=3, weighted=True), ["pr"]
    ),
    "pagerank_personalized": (_personalized, ["pr", "tele"]),
    "connected_components": (ENTRY_POINTS["connected_components"], ["cc"]),
    "sssp_batch": (ENTRY_POINTS["sssp_batch"], ["dist"]),
    "core_numbers": (ENTRY_POINTS["core_numbers"], ["core"]),
    "greedy_coloring": (ENTRY_POINTS["greedy_coloring"], ["color", "prio"]),
    "spmv_pagerank": (ENTRY_POINTS["spmv_pagerank"], ["pr"]),
    "spmv_bfs": (ENTRY_POINTS["spmv_bfs"], ["front", "level"]),
}


@pytest.mark.parametrize("algo", sorted(STATE_SETS))
def test_the_arena_holds_loop_state_only(algo):
    from repro.core.hooks import BoundaryHook

    run, want = STATE_SETS[algo]
    seen = []

    class Names(BoundaryHook):
        slot, phases = "names", ("verify",)

        def on_phase(self, phase, engine, boundary):
            seen.append(sorted(engine.fleet.views[0]))

    engine = Engine(GRAPH, 9)
    engine.attach(Names())
    run(engine)
    assert seen and all(names == want for names in seen), seen
