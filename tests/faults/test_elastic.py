"""Elastic recovery: permanent rank loss -> regrid -> identical finish.

The tentpole claim: when a crash exhausts its retries, the run migrates
the latest checkpoint onto a grid over the *surviving* ranks and
resumes — and every monotone (min/max-reducing) algorithm still
finishes bit-identical to the fault-free run.  PageRank's sum
reductions are grouping-sensitive, so it is bit-exact only on the
same-grid (spare-pool) path and ~1 ulp after a shrink.  A detected
bit-flip is not a rank loss: every policy resumes it in place.
"""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.comm.grid import Grid2D
from repro.core.program import VertexProgram, run_vertex_program
from repro.faults import (
    CheckpointManager,
    ElasticUnrecoverable,
    FaultPlan,
    FaultSpec,
    IntegrityLedger,
    RankFailure,
    Recovery,
    drive_elastic,
    run_campaign,
    run_case,
)
from repro.faults.elastic import REGRID_BW
from repro.graph import rmat

from ..conftest import assert_state_is_stacked, rank_order

GRID = Grid2D(R=4, C=3)


def _graph():
    return rmat(7, seed=3)


def _program():
    return VertexProgram(
        name="minlabel",
        init=lambda ids: ids.astype(np.float64),
        op="min",
    )


#: (name, needs_weights, runner(engine, resume)) for every
#: resume-capable algorithm entry point — the shape ``drive_elastic``
#: drives.
ALGOS = {
    "bfs": (False, lambda e, r=False: algorithms.bfs(e, root=0, resume=r)),
    "pagerank": (
        False,
        lambda e, r=False: algorithms.pagerank(e, iterations=8, resume=r),
    ),
    "cc": (
        False,
        lambda e, r=False: algorithms.connected_components(e, resume=r),
    ),
    "sssp": (True, lambda e, r=False: algorithms.sssp(e, root=0, resume=r)),
    "labelprop": (
        False,
        lambda e, r=False: algorithms.label_propagation(e, resume=r),
    ),
    "pointerjump": (
        False,
        lambda e, r=False: algorithms.pointer_jumping(e, resume=r),
    ),
    "program": (
        False,
        lambda e, r=False: run_vertex_program(e, _program(), resume=r),
    ),
}

MONOTONE = [k for k in ALGOS if k != "pagerank"]


def _engines(name):
    needs_weights, runner = ALGOS[name]
    g = _graph()
    if needs_weights:
        g = g.with_random_weights(seed=1, low=0.1, high=1.0)

    def make():
        return Engine(g, grid=GRID)

    return make, runner


def elastic_run(name, policy="prefer-square", specs=None):
    """Fault-free reference + elastic crashed run; returns both results."""
    make, runner = _engines(name)
    if specs is None:
        specs = [FaultSpec("crash", 2, rank=5)]
    ref_engine = make()
    ref_engine.attach_checkpoints(CheckpointManager(interval=1))
    ref = runner(ref_engine)

    engine = make()
    engine.attach_checkpoints(CheckpointManager(interval=1))
    engine.attach_faults(FaultPlan(list(specs)), max_retries=2)
    res = drive_elastic(runner, engine, Recovery(policy))
    # the migrated state landed in the final engine's stacked buffers
    assert_state_is_stacked(res.extra["elastic"]["engine"])
    return ref, res


class TestShrinkBitIdentity:
    @pytest.mark.parametrize("name", MONOTONE)
    def test_monotone_algorithms_bit_identical(self, name):
        ref, res = elastic_run(name)
        info = res.extra["elastic"]
        assert info["regrids"] == 1
        assert info["final_grid"] == (1, 11)
        assert np.array_equal(ref.values, res.values)

    @pytest.mark.parametrize("name", ["bfs", "cc"])
    def test_extras_survive(self, name):
        ref, res = elastic_run(name)
        if name == "bfs":
            assert np.array_equal(ref.extra["levels"], res.extra["levels"])
        else:
            assert ref.extra["n_components"] == res.extra["n_components"]

    def test_pagerank_shrink_within_ulp(self):
        ref, res = elastic_run("pagerank")
        assert res.extra["elastic"]["regrids"] == 1
        assert np.allclose(ref.values, res.values, rtol=1e-9, atol=1e-12)

    def test_pagerank_spare_bit_exact(self):
        ref, res = elastic_run("pagerank", policy="spare-pool:1")
        info = res.extra["elastic"]
        assert info["regrids"] == 1
        assert info["final_grid"] == (GRID.R, GRID.C)
        assert info["events"][0]["spare"] is True
        assert np.array_equal(ref.values, res.values)


class TestCascadeAndPolicies:
    def test_double_crash_regrids_twice(self):
        specs = [FaultSpec("crash", 2, rank=5), FaultSpec("crash", 3, rank=2)]
        ref, res = elastic_run("bfs", specs=specs)
        info = res.extra["elastic"]
        assert info["regrids"] == 2
        assert [e["to_grid"] for e in info["events"]] == [(1, 11), (2, 5)]
        assert np.array_equal(ref.values, res.values)

    def test_spare_pool_falls_back_when_exhausted(self):
        specs = [FaultSpec("crash", 2, rank=5), FaultSpec("crash", 3, rank=2)]
        ref, res = elastic_run("cc", policy="spare-pool:1", specs=specs)
        info = res.extra["elastic"]
        assert [e["spare"] for e in info["events"]] == [True, False]
        assert info["final_grid"] == (1, 11)
        assert np.array_equal(ref.values, res.values)

    def test_policy_objects_and_specs(self):
        # ``name`` is the policy without its spare count
        specs = {
            "in-place": ("in-place", 0),
            "prefer-square": ("prefer-square", 0),
            "spare-pool": ("spare-pool", 1),
            "spare-pool:3": ("spare-pool", 3),
            "spare-pool:0": ("spare-pool", 0),
            "autoscale": ("autoscale", 0),
        }
        for spec, expected in specs.items():
            rec = Recovery(spec)
            assert (rec.name, rec.spares) == expected
        with pytest.raises(ValueError, match="unknown recovery policy"):
            Recovery("round-robin")
        with pytest.raises(ValueError, match="spare-pool:N"):
            Recovery("spare-pool:lots")

    def test_prefer_square_choices(self):
        # all survivors, on their most square factor pair
        for grid, shrunk in (
            (GRID, Grid2D(R=1, C=11)),
            (Grid2D(R=1, C=11), Grid2D(R=2, C=5)),
            (Grid2D(R=2, C=5), Grid2D(R=3, C=3)),
        ):
            engine = Engine(_graph(), grid=grid)
            engine.attach_checkpoints(CheckpointManager(interval=1))
            algorithms.pagerank(engine, iterations=1)
            crash = RankFailure(0, 2, "allreduce")
            assert Recovery("prefer-square").recover(engine, crash).grid == shrunk

    def test_elastic_recovery_takes_policy_specs(self):
        # The driver takes a Recovery; its policy may be a string spec.
        make, runner = _engines("cc")
        engine = make()
        engine.attach_checkpoints(CheckpointManager(interval=1))
        engine.attach_faults(
            FaultPlan([FaultSpec("crash", 2, rank=5)]), max_retries=2
        )
        res = drive_elastic(runner, engine, Recovery("spare-pool:1"))
        assert res.extra["elastic"]["policy"] == "spare-pool"
        assert res.extra["elastic"]["final_grid"] == (GRID.R, GRID.C)

    def test_default_recovery_resumes_in_place(self):
        # No elastic policy: the crashed rank is modeled as replaced and
        # the run resumes on the same grid, bit-identical and uncharged.
        make, runner = _engines("cc")
        ref_engine = make()
        ref_engine.attach_checkpoints(CheckpointManager(interval=1))
        ref = runner(ref_engine)
        engine = make()
        engine.attach_checkpoints(CheckpointManager(interval=1))
        engine.attach_faults(
            FaultPlan([FaultSpec("crash", 2, rank=5)]), max_retries=2
        )
        res = drive_elastic(runner, engine)
        info = res.extra["elastic"]
        assert info["engine"] is engine
        assert (info["policy"], info["resumes"], info["regrids"]) == (
            "in-place",
            1,
            0,
        )
        assert np.array_equal(ref.values, res.values)
        assert np.array_equal(ref_engine.clocks.clock, engine.clocks.clock)
        assert res.timings.regrid == 0.0

    @pytest.mark.parametrize("policy", ["spare-pool:1", "prefer-square"])
    @pytest.mark.parametrize("op", ["bfs_batch", "sssp_batch"])
    def test_batched_traversals_go_through_the_same_driver(self, op, policy):
        # Any resume-capable call is a runner, and a batch's (vertex,
        # lane) frontier crosses a shrink like a single-source one.
        roots = [0, 3, 17]
        g = _graph()
        if op == "sssp_batch":
            g = g.with_random_weights(seed=1, low=0.1, high=1.0)
        run = getattr(algorithms, op)
        ref = run(Engine(g, grid=GRID), roots)
        engine = Engine(g, grid=GRID)
        engine.attach_checkpoints(CheckpointManager(interval=1))
        engine.attach_faults(
            FaultPlan([FaultSpec("crash", 2, rank=5)]), max_retries=2
        )
        res = drive_elastic(
            lambda e, r: run(e, roots, resume=r), engine, Recovery(policy)
        )
        info = res.extra["elastic"]
        assert info["regrids"] == 1
        assert info["final_grid"] == ((1, 11) if policy == "prefer-square" else (GRID.R, GRID.C))
        assert np.array_equal(ref.values, res.values)


class TestIntegrityResumesInPlace:
    @pytest.mark.parametrize(
        "policy", ["in-place", "prefer-square", "spare-pool:1", "autoscale"]
    )
    def test_detected_bitflip_keeps_the_grid(self, policy):
        """A detected memflip names a healthy rank: no policy sheds it,
        and the in-place resume spends one unit of the budget."""
        graph = rmat(8, seed=1)

        def make():
            engine = Engine(graph, grid=Grid2D(R=2, C=2))
            engine.attach_integrity(IntegrityLedger())
            engine.attach_checkpoints(CheckpointManager(interval=1))
            return engine

        ref = algorithms.connected_components(make())
        engine = make()
        engine.attach_faults(
            FaultPlan([FaultSpec("memflip", 2, rank=1, bit=137)])
        )
        res = drive_elastic(
            lambda e, r: algorithms.connected_components(e, resume=r),
            engine,
            Recovery(policy),
        )
        info = res.extra["elastic"]
        assert info["final_grid"] == (2, 2)
        assert (info["regrids"], info["resumes"]) == (0, 1)
        assert res.timings.regrid == 0.0
        assert float(info["engine"].clocks.peak("regrid")) == 0.0
        assert np.array_equal(ref.values, res.values)


class TestAccounting:
    def test_regrid_lane_and_trace_event(self):
        _, res = elastic_run("bfs")
        info = res.extra["elastic"]
        engine = info["engine"]
        assert res.timings.regrid > 0
        assert 0 < res.timings.regrid_fraction < 1
        assert float(engine.clocks.peak("regrid")) == pytest.approx(
            res.timings.regrid
        )
        regrids = [
            e for e in engine.fault_events if e.get("kind") == "regrid"
        ]
        assert len(regrids) == 1
        (event,) = regrids
        assert event["from_grid"] == (4, 3)
        assert event["to_grid"] == (1, 11)
        assert event["policy"] == "prefer-square"
        assert event["recovery_s"] > 0
        crashes = [
            e for e in engine.fault_events if e.get("kind") == "crash"
        ]
        assert crashes, "the original crash event must survive the rebuild"

    def test_spare_charges_less_than_shrink(self):
        _, shrink = elastic_run("cc")
        _, spare = elastic_run("cc", policy="spare-pool:1")
        assert 0 < spare.timings.regrid < shrink.timings.regrid

    def test_cross_executor_identical(self):
        """A crash, regrid and resume give the same answer and regrid
        charge whichever order ``map_ranks`` visits the ranks in (the
        id is the one this check had across rank executors)."""
        ref_s, res_s = elastic_run("bfs")
        with rank_order("reversed"):
            ref_t, res_t = elastic_run("bfs")
        assert np.array_equal(res_s.values, res_t.values)
        assert np.array_equal(ref_s.values, res_s.values)
        assert res_s.timings.regrid == res_t.timings.regrid


class TestUnrecoverable:
    def test_no_checkpoint_manager(self):
        make, runner = _engines("bfs")
        engine = make()
        engine.attach_faults(
            FaultPlan([FaultSpec("crash", 2, rank=5)]), max_retries=2
        )
        with pytest.raises(ElasticUnrecoverable, match="no checkpoint"):
            drive_elastic(runner, engine, Recovery("prefer-square"))

    def test_regrid_budget_exhausted(self):
        make, runner = _engines("bfs")
        engine = make()
        engine.attach_checkpoints(CheckpointManager(interval=1))
        engine.attach_faults(
            FaultPlan(
                [FaultSpec("crash", 2, rank=5), FaultSpec("crash", 3, rank=2)]
            ),
            max_retries=2,
        )
        with pytest.raises(ElasticUnrecoverable, match="budget"):
            drive_elastic(
                runner, engine, Recovery("prefer-square", max_recoveries=1)
            )

    def test_recovery_config_validated(self):
        with pytest.raises(ValueError, match="max_recoveries"):
            Recovery("prefer-square", max_recoveries=-1)
        with pytest.raises(ValueError, match="N >= 0"):
            Recovery("spare-pool:-1")
        # the migration bandwidth is a constant, not a knob: a spare is
        # charged the dead rank's window bytes at REGRID_BW
        _, res = elastic_run("cc", policy="spare-pool:1")
        engine = res.extra["elastic"]["engine"]
        (event,) = res.extra["elastic"]["events"]
        ckpt = engine.checkpoints.checkpoints[0]
        dead = engine.fleet.n_total[event["rank"]] * sum(
            vec.itemsize for vec in ckpt.state.values()
        )
        assert REGRID_BW == 12e9
        assert event["recovery_s"] == dead / REGRID_BW


class TestEngineSeams:
    def test_rebuild_on_grid_carries_state(self):
        engine = Engine(_graph(), grid=GRID)
        algorithms.pagerank(engine, iterations=2)
        comm_before = engine.clocks.comm.max()
        new = engine.rebuild_on_grid(Grid2D(R=2, C=5))
        assert new.n_ranks == 10
        assert new.counters.state_dict() == engine.counters.state_dict()
        # Clocks align to the BSP rendezvous: every new rank at the peak.
        assert np.all(new.clocks.comm == comm_before)

    def test_attach_faults_rejects_out_of_range_rank(self):
        engine = Engine(_graph(), grid=GRID)
        with pytest.raises(ValueError, match="rank=12"):
            engine.attach_faults(
                FaultPlan([FaultSpec("crash", 2, rank=12)])
            )


class TestCampaign:
    def test_case_grades_regridded(self):
        def make():
            return Engine(_graph(), grid=GRID)

        case = run_case("elastic", make, "CC", "crash-shrink")
        assert case.status == "regridded"
        assert case.ok
        assert case.values_equal is True
        assert case.n_regrids == 1
        assert case.grid_trail == [(4, 3), (1, 11)]
        assert case.regrid_s > 0

    def test_campaign_all_green(self):
        def make():
            return Engine(_graph(), grid=GRID)

        report = run_campaign("elastic", make, algos=("BFS",))
        assert report["schema"] == "repro.faults.elastic.v1"
        assert report["total"] == 4
        assert report["failed"] == 0
        assert report["unrecovered"] == 0
        assert report["regrids"] == 5

    def test_unknown_names_rejected(self):
        def make():
            return Engine(_graph(), grid=GRID)

        with pytest.raises(ValueError, match="unknown algorithm"):
            run_case("elastic", make, "NOPE", "crash-shrink")
        with pytest.raises(ValueError, match="unknown elastic scenario"):
            run_case("elastic", make, "BFS", "nope")

    def test_unrecovered_case_is_graded_not_raised(self):
        # No checkpoint before the crash (interval beyond the run): the
        # case ends "unrecovered" and still tells the whole story.
        def make():
            return Engine(_graph(), grid=GRID)

        case = run_case(
            "elastic", make, "BFS", "crash-shrink", checkpoint_interval=50
        )
        assert case.status == "unrecovered" and not case.ok
        assert "no checkpoint" in case.error
        assert case.grid_trail == [(4, 3)]
        assert [e["kind"] for e in case.fault_events] == ["crash"]
