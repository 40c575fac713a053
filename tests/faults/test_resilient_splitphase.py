"""Split-phase collectives under the fault protocol.

The guard runs at ``wait`` time — detection of an in-flight
collective's corruption is end-to-end, so the crash check, CRC retry
loop, and backoff charging all happen when the handle completes, with
retry time in the recovery lane and counters recorded exactly once (at
issue).
"""

import numpy as np
import pytest

from repro.cluster import AIMOS, CostModel, Topology
from repro.comm import Communicator, VirtualClocks
from repro.faults import FaultPlan, FaultSpec, RankFailure
from repro.faults.injector import FaultInjector


def _resilient(plan, n_ranks=4, max_retries=4):
    """A communicator guarded by an injector running ``plan``."""
    topo = Topology(AIMOS, n_ranks)
    comm = Communicator(CostModel(AIMOS.gpu, topo), VirtualClocks(n_ranks))
    injector = FaultInjector(plan)
    injector.max_retries = max_retries
    comm.guard = injector.guard
    return comm


class TestGuardedAtWait:
    def test_faultfree_matches_blocking(self):
        blocking = _resilient(FaultPlan([]))
        split = _resilient(FaultPlan([]))
        data = [np.array([float(r)]) for r in range(4)]
        blocking.allreduce([0, 1, 2, 3], [d.copy() for d in data], op="sum")
        h = split.start_allreduce(
            [0, 1, 2, 3], [d.copy() for d in data], op="sum"
        )
        split.wait(h)
        assert np.array_equal(blocking.clocks.clock, split.clocks.clock)
        assert np.array_equal(blocking.clocks.comm, split.clocks.comm)
        assert blocking.counters.summary() == split.counters.summary()

    def test_corruption_retries_at_wait_charge_recovery(self):
        plan = FaultPlan(
            [FaultSpec("corruption", 1, collective="allgatherv", count=2)]
        )
        comm = _resilient(plan)
        send = [np.arange(r + 1, dtype=np.float64) for r in range(4)]
        h = comm.start_allgatherv([0, 1, 2, 3], send)
        # nothing charged yet: detection happens at completion
        assert comm.clocks.peak("recovery") == 0.0
        comm.wait(h)
        assert comm.clocks.peak("recovery") > 0.0
        events = [e.as_dict() for e in comm.guard.__self__.events]
        assert [e["kind"] for e in events] == ["corruption", "corruption"]
        assert all(e["detected"] for e in events)
        assert all(not e["fatal"] for e in events)

    def test_retries_never_inflate_counters(self):
        clean = _resilient(FaultPlan([]))
        faulty = _resilient(
            FaultPlan([FaultSpec("transient", 1, count=3)])
        )
        send = [np.ones(8) * r for r in range(4)]
        clean.wait(clean.start_allgatherv([0, 1, 2, 3], [s.copy() for s in send]))
        faulty.wait(faulty.start_allgatherv([0, 1, 2, 3], [s.copy() for s in send]))
        assert clean.counters.summary() == faulty.counters.summary()
        assert faulty.clocks.peak("recovery") > clean.clocks.peak("recovery")

    def test_crash_surfaces_at_wait(self):
        plan = FaultPlan([FaultSpec("crash", 1, rank=2)])
        comm = _resilient(plan)
        bufs = [np.zeros(4) for _ in range(4)]
        h = comm.start_allreduce([0, 1, 2, 3], bufs, op="sum")
        with pytest.raises(RankFailure) as exc:
            comm.wait(h)
        assert exc.value.rank == 2

    def test_exhausted_retries_escalate_at_wait(self):
        plan = FaultPlan([FaultSpec("transient", 1, count=99)])
        comm = _resilient(plan, max_retries=2)
        h = comm.start_alltoallv(
            [0, 1], [[np.ones(2), np.ones(3)], [np.ones(1), np.ones(4)]]
        )
        with pytest.raises(RankFailure):
            comm.wait(h)

    def test_retry_backoff_lands_in_overlap_window(self):
        """Backoff advances the group's clocks between issue and
        completion, so the retried collective's own comm charge can
        hide behind it — retries cost recovery time, not extra comm."""
        plan = FaultPlan([FaultSpec("corruption", 1, count=1)])
        comm = _resilient(plan)
        send = [np.ones(4) for _ in range(4)]
        h = comm.start_allgatherv([0, 1, 2, 3], send)
        comm.wait(h)
        assert comm.clocks.overlap.sum() > 0.0
        assert (comm.clocks.overlap <= comm.clocks.comm + 1e-12).all()


class TestEngineIntegration:
    def test_overlapped_run_with_transients_matches_blocking(self):
        from repro import Engine, algorithms
        from repro.graph import rmat

        g = rmat(8, seed=11)

        def run(overlap):
            e = Engine(g, 4, overlap=overlap)
            e.attach_faults(
                FaultPlan(
                    [
                        FaultSpec("transient", 2, count=1),
                        FaultSpec("corruption", 3, count=1),
                    ]
                )
            )
            return e, algorithms.pagerank(e, iterations=5)

        eb, rb = run(False)
        eo, ro = run(True)
        assert np.array_equal(rb.values, ro.values)
        assert rb.counters == ro.counters
        assert rb.timings.compute == ro.timings.compute
        assert rb.timings.comm == ro.timings.comm
        assert ro.timings.total <= rb.timings.total
        # both runs saw (and survived) the same planned faults
        assert [e["kind"] for e in eb.fault_events] == [
            e["kind"] for e in eo.fault_events
        ]
