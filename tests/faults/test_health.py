"""HealthMonitor scoring, and the autoscaling Recovery's one gate.

The gate tests drive ``Recovery("autoscale").on_phase("decide", ...)``
on a :class:`FakeEngine`: a decision either raises (``RankDemotion`` /
``SpareArrival``), records one ``hold`` event, or does nothing.
"""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.comm.grid import Grid2D, squarest_grid
from repro.core.hooks import Boundary
from repro.faults import (
    RANK_HEALTH,
    CheckpointManager,
    HealthMonitor,
    RankDemotion,
    Recovery,
    SpareArrival,
)
from repro.graph import rmat


class FakeClocks:
    def __init__(self, n):
        self.compute = np.zeros(n)
        self.recovery = np.zeros(n)

    def per_rank_lanes(self):
        return {
            "compute": self.compute.copy(),
            "recovery": self.recovery.copy(),
        }


class FakeEngine:
    """Just enough engine surface for monitor/gate unit tests."""

    def __init__(self, n_ranks=4):
        self.n_ranks = n_ranks
        self.clocks = FakeClocks(n_ranks)
        self.fault_events = []
        self.checkpoints = None

    def record_event(self, event):
        self.fault_events.append(event)

    def advance(self, compute, recovery=None):
        self.clocks.compute += np.asarray(compute, dtype=float)
        if recovery is not None:
            self.clocks.recovery += np.asarray(recovery, dtype=float)


class FakeManager:
    def __init__(self, ckpt="ckpt"):
        self._ckpt = ckpt

    def latest(self):
        return self._ckpt


class TestHealthMonitorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"suspect_s": 0.0},
            {"rel_threshold": -1.0},
            {"chronic_after": 0},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HealthMonitor(**kwargs)

    def test_health_states_in_escalation_order(self):
        assert RANK_HEALTH == ("healthy", "suspect", "chronic")


class TestHealthMonitorScoring:
    def test_first_observe_baselines_without_events(self):
        engine = FakeEngine(4)
        mon = HealthMonitor()
        assert mon.observe(engine, 1) == []
        assert mon.n_ranks == 4
        assert mon.report()["statuses"] == ["healthy"] * 4

    def test_straggler_flagged_then_chronic_then_recovers(self):
        engine = FakeEngine(4)
        mon = HealthMonitor(alpha=0.5, chronic_after=2)
        mon.bind(engine)
        # Rank 1 is 10s slower than the 1s group median each boundary:
        # EWMA score 5.0 > threshold 4 * median(1.0) -> suspect.
        engine.advance([1.0, 11.0, 1.0, 1.0])
        events = mon.observe(engine, 1)
        assert [e["status"] for e in events] == ["suspect"]
        assert events[0]["rank"] == 1
        assert mon.status(1) == "suspect"
        # Second consecutive suspect boundary -> chronic.
        engine.advance([1.0, 11.0, 1.0, 1.0])
        events = mon.observe(engine, 2)
        assert [e["status"] for e in events] == ["chronic"]
        assert mon.chronic_ranks() == [1]
        # A clean boundary decays the EWMA below threshold -> healthy.
        engine.advance([1.0, 1.0, 1.0, 1.0])
        events = mon.observe(engine, 3)
        assert [e["status"] for e in events] == ["healthy"]
        assert mon.chronic_ranks() == []
        # All transitions also landed on the engine's event stream.
        kinds = {e["kind"] for e in engine.fault_events}
        assert kinds == {"health"}
        assert len(engine.fault_events) == 3

    def test_recovery_lane_stall_counts_as_excess(self):
        engine = FakeEngine(4)
        mon = HealthMonitor(alpha=1.0, chronic_after=1)
        mon.bind(engine)
        engine.advance(
            [1.0, 1.0, 1.0, 1.0], recovery=[0.0, 10.0, 0.0, 0.0]
        )
        events = mon.observe(engine, 1)
        assert [(e["rank"], e["status"]) for e in events] == [(1, "chronic")]

    def test_globally_charged_costs_cancel(self):
        """A uniform stall on every rank (e.g. a checkpoint drain) is
        median-relative zero excess: no one gets flagged."""
        engine = FakeEngine(4)
        mon = HealthMonitor()
        mon.bind(engine)
        engine.advance([1.0] * 4, recovery=[5.0] * 4)
        assert mon.observe(engine, 1) == []
        assert mon.report()["statuses"] == ["healthy"] * 4

    def test_rank_count_change_rebinds_and_resets(self):
        engine = FakeEngine(4)
        mon = HealthMonitor(alpha=1.0, chronic_after=1)
        mon.bind(engine)
        engine.advance([1.0, 11.0, 1.0, 1.0])
        mon.observe(engine, 1)
        assert mon.chronic_ranks() == [1]
        smaller = FakeEngine(3)
        assert mon.observe(smaller, 2) == []  # regrid happened: rebaseline
        assert mon.n_ranks == 3
        assert mon.report()["statuses"] == ["healthy"] * 3

    def test_chronic_ranks_sorted_worst_first(self):
        # 5 ranks so two stragglers leave the median at the healthy
        # baseline (median-relative scoring needs a healthy majority).
        engine = FakeEngine(5)
        mon = HealthMonitor(alpha=1.0, chronic_after=1)
        mon.bind(engine)
        engine.advance([1.0, 11.0, 21.0, 1.0, 1.0])
        mon.observe(engine, 1)
        assert mon.chronic_ranks() == [2, 1]


def decide(rec, engine, superstep, spares=0):
    """Fire the autoscaler's ``decide`` phase; returns the new events,
    or the decision it raised."""
    before = len(rec.events)
    try:
        rec.on_phase(
            "decide", engine,
            Boundary(superstep, "algo", None, spares_arrived=spares),
        )
    except (RankDemotion, SpareArrival) as decision:
        return decision
    return rec.events[before:]


class TestDemotionPolicy:
    def _chronic_setup(self, n_ranks=4):
        engine = FakeEngine(n_ranks)
        engine.checkpoints = FakeManager()
        rec = Recovery(
            "autoscale", monitor=HealthMonitor(alpha=1.0, chronic_after=1)
        )
        rec.monitor.bind(engine)
        deltas = np.ones(n_ranks)
        deltas[1] = 11.0
        engine.advance(deltas)
        rec.monitor.observe(engine, 1)
        assert rec.monitor.chronic_ranks() == [1]
        return engine, rec

    def test_bad_params_rejected(self):
        for policy in (
            "round-robin", "prefer-square:2", "autoscale:1", "spare-pool:",
            "spare-pool:-1", "spare-pool:lots", "spare-pool:1.5", 7,
        ):
            with pytest.raises(ValueError, match="choose from in-place, pref"):
                Recovery(policy)

    def test_demotes_chronic_rank_and_consumes_budget(self):
        engine, rec = self._chronic_setup()
        demotion = decide(rec, engine, 1)
        assert isinstance(demotion, RankDemotion)
        assert (demotion.rank, demotion.superstep) == (1, 1)
        assert [e["kind"] for e in rec.events] == ["demote"]
        assert rec.events[0]["policy"] == "autoscale"
        # Once per run: the same chronic rank is not demoted again.
        assert decide(rec, engine, 5) == []

    def test_cooldown_separates_demotions(self):
        """A demotion waits out the superstep of the last move (here a
        crash's shrink at superstep 2)."""
        engine, rec = self._chronic_setup()
        rec._last_move = 2
        assert decide(rec, engine, 2) == []
        assert isinstance(decide(rec, engine, 3), RankDemotion)

    def test_requires_checkpoint_to_drain_from(self):
        engine, rec = self._chronic_setup()
        engine.checkpoints = None
        assert decide(rec, engine, 1) == []
        engine.checkpoints = FakeManager(ckpt=None)
        assert decide(rec, engine, 1) == []

    def test_never_demotes_last_rank(self):
        engine, rec = self._chronic_setup()
        engine.n_ranks = 1
        assert decide(rec, engine, 1) == []

    def test_healthy_group_yields_none(self):
        engine = FakeEngine(4)
        engine.checkpoints = FakeManager()
        rec = Recovery("autoscale")
        rec.monitor.bind(engine)
        engine.advance([1.0] * 4)
        rec.monitor.observe(engine, 1)
        assert decide(rec, engine, 1) == []


def _grow_ready(hysteresis=0):
    engine = FakeEngine(4)
    engine.checkpoints = FakeManager()
    rec = Recovery("autoscale", hysteresis=hysteresis)
    rec.monitor.bind(engine)
    return engine, rec


class TestAutoscalePolicy:
    def test_bad_params_rejected(self):
        for kwargs in ({"hysteresis": -1}, {"max_recoveries": -1}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                Recovery("autoscale", **kwargs)

    def test_grow_grid_is_squarest_of_p_plus_one(self):
        graph = rmat(6, seed=5)
        for grid, grown in (
            (Grid2D(1, 3), Grid2D(2, 2)),
            (Grid2D(2, 2), Grid2D(1, 5)),
        ):
            engine = Engine(graph, grid=grid)
            engine.attach_checkpoints(CheckpointManager(interval=1))
            algorithms.pagerank(engine, iterations=1)
            rec = Recovery("autoscale")
            rec.pending = [1]
            new = rec.grow(engine, SpareArrival(1))
            assert new.grid == grown == squarest_grid(grid.n_ranks + 1)
            assert (rec.regrids, rec.pending) == (1, [])
            assert rec.events[0]["kind"] == "grow"

    def test_hold_reasons_in_gate_order(self):
        engine, rec = _grow_ready(hysteresis=2)
        assert decide(rec, engine, 5) == []  # no spare: nothing to decide
        (hold,) = decide(rec, engine, 5, spares=1)
        assert (hold["kind"], hold["reason"], hold["pending"]) == (
            "hold", "hysteresis", 1,  # aged 0 < 2
        )
        assert isinstance(decide(rec, engine, 7), SpareArrival)  # aged 2
        rec._last_move = 7
        assert rec._hold("grow", 7, waited=2) == "cooldown"
        assert rec._hold("grow", 8, waited=3) is None
        rec.events.append({"kind": "grow"})
        assert rec._hold("grow", 9, waited=4) == "max-grows"
        # the once-per-run check comes first, the cooldown last
        assert rec._hold("grow", 7, waited=0) == "max-grows"
        rec.events.clear()
        assert rec._hold("grow", 7, waited=0) == "hysteresis"

    def test_should_grow_mirrors_hold_reason(self):
        engine, rec = _grow_ready(hysteresis=1)
        rec.pending = [3]
        for step in (3, 4):
            grows = isinstance(decide(rec, engine, step), SpareArrival)
            assert grows == (rec._hold("grow", step, waited=step - 3) is None)
        assert [e["kind"] for e in rec.events] == ["hold"]

    def test_spare_arrival_clears_held_latch(self):
        """One hold event per arrival batch, however many boundaries
        the batch is held for."""
        engine, rec = _grow_ready(hysteresis=100)
        assert len(decide(rec, engine, 3, spares=2)) == 1
        assert decide(rec, engine, 4) == []
        (hold,) = decide(rec, engine, 5, spares=1)
        assert hold["pending"] == 3
        assert rec.pending == [3, 3, 5]


class TestAutoscaleRecoveryConfig:
    def test_rejects_plain_grid_policy(self):
        """The monitor and hysteresis belong to the autoscaler alone."""
        for policy in ("in-place", "prefer-square", "spare-pool:1"):
            with pytest.raises(ValueError, match="'autoscale'"):
                Recovery(policy, monitor=HealthMonitor())
            with pytest.raises(ValueError, match="'autoscale'"):
                Recovery(policy, hysteresis=1)

    def test_defaults_are_installed(self):
        rec = Recovery("autoscale")
        assert (rec.name, rec.max_recoveries, rec.hysteresis) == ("autoscale", 4, 0)
        assert isinstance(rec.monitor, HealthMonitor)
        assert Recovery().monitor is None
