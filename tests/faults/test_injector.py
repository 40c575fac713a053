"""FaultInjector and the communicator guard it sets: the fault protocol itself."""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.cluster import AIMOS, CostModel, Topology
from repro.comm import BroadcastCall, Communicator, VirtualClocks
from repro.comm.collectives import COLLECTIVE_KINDS, rank_major
from repro.comm.grid import Grid2D
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RankFailure,
)
from repro.graph import rmat


def small_engine(scale=7, seed=3, n_ranks=4):
    return Engine(rmat(scale, seed=seed), n_ranks)


class TestInjectorStateMachine:
    def test_crash_is_consumed_once(self):
        inj = FaultInjector(FaultPlan([FaultSpec("crash", 2, rank=1)]))
        inj.begin_superstep(2)
        spec = inj.crash_among("allreduce", [0, 1, 2, 3])
        assert spec is not None and spec.rank == 1
        # consumed: the replaced rank does not crash again
        assert inj.crash_among("allreduce", [0, 1, 2, 3]) is None

    def test_crash_waits_for_its_superstep(self):
        inj = FaultInjector(FaultPlan([FaultSpec("crash", 3, rank=0)]))
        inj.begin_superstep(2)
        assert inj.crash_among("allreduce", [0, 1]) is None
        inj.begin_superstep(4)  # persists past its superstep
        assert inj.crash_among("allreduce", [0, 1]) is not None

    def test_crash_needs_rank_in_group(self):
        inj = FaultInjector(FaultPlan([FaultSpec("crash", 1, rank=3)]))
        assert inj.crash_among("allreduce", [0, 1]) is None
        assert inj.crash_among("allreduce", [2, 3]) is not None

    def test_transient_consumes_count_attempts(self):
        inj = FaultInjector(FaultPlan([FaultSpec("transient", 1, count=2)]))
        assert inj.next_disruption("allreduce", [0, 1]) is not None
        assert inj.next_disruption("allreduce", [0, 1]) is not None
        assert inj.next_disruption("allreduce", [0, 1]) is None

    def test_disruption_only_at_exact_superstep(self):
        inj = FaultInjector(FaultPlan([FaultSpec("transient", 2)]))
        assert inj.next_disruption("allreduce", [0]) is None  # superstep 1
        inj.begin_superstep(2)
        assert inj.next_disruption("allreduce", [0]) is not None

    def test_collective_filter(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec("transient", 1, collective="alltoallv")])
        )
        assert inj.next_disruption("allreduce", [0]) is None
        assert inj.next_disruption("alltoallv", [0]) is not None

    def test_straggler_fires_once_at_exact_superstep(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec("straggler", 2, rank=0, delay_s=1e-3)])
        )
        assert inj.stragglers_for("allreduce", [0, 1]) == []
        inj.begin_superstep(2)
        fired = inj.stragglers_for("allreduce", [0, 1])
        assert len(fired) == 1 and fired[0].rank == 0
        assert inj.stragglers_for("allreduce", [0, 1]) == []

    def test_reset_rearms_plan(self):
        plan = FaultPlan(
            [
                FaultSpec("crash", 1, rank=0),
                FaultSpec("transient", 1, count=1),
                FaultSpec("straggler", 1, rank=1, delay_s=1e-3),
            ]
        )
        inj = FaultInjector(plan)

        def fire():
            return (
                inj.crash_among("allreduce", [0]),
                inj.next_disruption("allreduce", [0]),
                inj.stragglers_for("allreduce", [0, 1]),
            )

        first = fire()
        assert all(first)
        assert not any(fire())  # every planned fault has fired
        inj.reset()
        assert inj.superstep == 1
        assert fire() == first

    def test_rank_failure_carries_diagnostics(self):
        err = RankFailure(2, 5, "alltoallv", fault_kind="transient", retries=3)
        assert (err.rank, err.superstep, err.collective) == (2, 5, "alltoallv")
        assert err.fault_kind == "transient" and err.retries == 3
        msg = str(err)
        assert "rank 2" in msg and "superstep 5" in msg
        assert "alltoallv" in msg and "3 retries" in msg


class TestResilientProtocol:
    def test_transient_retries_charge_recovery_lane(self):
        engine = small_engine()
        engine.attach_faults(FaultPlan([FaultSpec("transient", 1, count=2)]))
        algorithms.pagerank(engine, iterations=2)
        events = engine.fault_events
        assert [e["retries"] for e in events] == [1, 2]
        assert engine.clocks.peak("recovery") > 0
        # exponential backoff: retry 2 costs double retry 1
        assert events[1]["recovery_s"] == pytest.approx(
            2 * events[0]["recovery_s"]
        )

    def test_retries_do_not_inflate_comm_counters(self):
        ref = small_engine()
        algorithms.pagerank(ref, iterations=2)
        engine = small_engine()
        engine.attach_faults(FaultPlan([FaultSpec("transient", 1, count=3)]))
        algorithms.pagerank(engine, iterations=2)
        assert ref.counters.summary() == engine.counters.summary()

    def test_exhausted_retries_escalate_to_rank_failure(self):
        engine = small_engine()
        engine.attach_faults(
            FaultPlan([FaultSpec("transient", 1, count=99)]), max_retries=2
        )
        with pytest.raises(RankFailure) as exc:
            algorithms.pagerank(engine, iterations=2)
        assert exc.value.fault_kind == "transient"
        assert exc.value.retries == 3  # max_retries + the failing attempt
        assert engine.fault_events[-1]["fatal"] is True

    def test_corruption_detected_via_checksum(self):
        engine = small_engine()
        engine.attach_faults(FaultPlan([FaultSpec("corruption", 1, bit=5)]))
        res = algorithms.pagerank(engine, iterations=2)
        events = [e for e in engine.fault_events if e["kind"] == "corruption"]
        assert len(events) == 1 and events[0]["detected"] is True
        # the retried run still converges to the fault-free answer
        ref = algorithms.pagerank(small_engine(), iterations=2)
        assert np.array_equal(res.values, ref.values)

    def test_straggler_stalls_group_clock(self):
        delay = 2e-3
        ref = small_engine()
        algorithms.bfs(ref, root=0)
        engine = small_engine()
        engine.attach_faults(
            FaultPlan([FaultSpec("straggler", 1, rank=0, delay_s=delay)])
        )
        res = algorithms.bfs(engine, root=0)
        assert np.array_equal(
            res.values, algorithms.bfs(small_engine(), root=0).values
        )
        # the stall lands in the recovery lane and drags the makespan
        # (not necessarily by the full delay — idle time absorbs some)
        assert engine.clocks.peak("recovery") == pytest.approx(delay)
        assert engine.clocks.peak("clock") > ref.clocks.peak("clock")

    def test_crash_raises_before_charging(self):
        engine = small_engine()
        engine.attach_faults(FaultPlan([FaultSpec("crash", 1, rank=0)]))
        with pytest.raises(RankFailure) as exc:
            algorithms.bfs(engine, root=0)
        assert exc.value.fault_kind == "crash" and exc.value.rank == 0
        # the aborted collective must not have charged anything beyond
        # what the run had already accumulated at the previous boundary
        assert engine.fault_events[-1]["fatal"] is True

    def test_reset_timers_rearms_injector(self):
        engine = small_engine()
        engine.attach_faults(FaultPlan([FaultSpec("transient", 1, count=1)]))
        algorithms.pagerank(engine, iterations=1)
        assert len(engine.fault_events) == 1
        algorithms.pagerank(engine, iterations=1)  # reset_timers re-arms
        assert len(engine.fault_events) == 1


def _comm(plan=None):
    """A 4-rank communicator, guarded by an injector running ``plan``."""
    comm = Communicator(CostModel(AIMOS.gpu, Topology(AIMOS, 4)), VirtualClocks(4))
    if plan is not None:
        comm.guard = FaultInjector(plan).guard
    return comm


def _call(comm, kind):
    """One blocking ``kind`` collective; returns its ranks."""
    ranks = [0, 1, 2, 3]
    bufs = [np.arange(4.0) + r for r in ranks]
    if kind == "allreduce":
        comm.allreduce(ranks, bufs)
    elif kind == "broadcast":
        comm.broadcast_stage([ranks], [BroadcastCall(bufs[1], bufs[:1] + bufs[2:])])
    elif kind == "grouped_broadcast":
        comm.grouped_broadcast_stage([ranks], [[BroadcastCall(bufs[0], bufs[1:])]])
    elif kind == "allgatherv":
        comm.allgatherv_stage([ranks], *rank_major(bufs))
    else:
        comm.alltoallv(ranks, [[b[:j] for j in range(4)] for b in bufs])
    return ranks


def _same_clocks(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k]
        for k in a
    )


class TestGuardAtEveryEntryPoint:
    """Every blocking collective runs the guard before it moves data."""

    @pytest.mark.parametrize("kind", COLLECTIVE_KINDS)
    def test_crash_on_a_member_raises_before_charging(self, kind):
        comm = _comm(FaultPlan([FaultSpec("crash", 1, rank=2, collective=kind)]))
        clocks, counters = comm.clocks.state_dict(), comm.counters.summary()
        with pytest.raises(RankFailure) as exc:
            _call(comm, kind)
        assert exc.value.collective == kind and exc.value.rank == 2
        assert _same_clocks(comm.clocks.state_dict(), clocks)
        assert comm.counters.summary() == counters

    @pytest.mark.parametrize("kind", COLLECTIVE_KINDS)
    def test_transient_retries_once_without_counting(self, kind):
        comm = _comm(FaultPlan([FaultSpec("transient", 1, collective=kind, count=1)]))
        ranks = _call(comm, kind)
        (event,) = comm.guard.__self__.events
        assert (event.collective, event.retries, event.fatal) == (kind, 1, False)
        backoff = FaultInjector.backoff_base_s
        assert (comm.clocks.recovery[ranks] == backoff).all()
        clean = _comm()
        _call(clean, kind)
        assert comm.counters.summary() == clean.counters.summary()

    def test_engine_comm_stays_one_communicator(self):
        engine = small_engine()
        engine.attach_faults(FaultPlan([]))
        assert type(engine.comm) is Communicator
        rebuilt = engine.rebuild_on_grid(Grid2D(R=1, C=3))
        assert type(rebuilt.comm) is Communicator
        assert rebuilt.comm.guard.__self__ is engine.comm.guard.__self__
