"""HealthMonitor scoring, DemotionPolicy gates, AutoscalePolicy holds."""

import numpy as np
import pytest

from repro.faults import (
    RANK_HEALTH,
    AutoscalePolicy,
    AutoscaleRecovery,
    DemotionPolicy,
    HealthMonitor,
    PreferSquare,
    SparePool,
)
from repro.comm.grid import Grid2D


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
    """Just enough engine surface for monitor/policy unit tests."""

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


class TestDemotionPolicy:
    def _chronic_setup(self, n_ranks=4):
        engine = FakeEngine(n_ranks)
        engine.checkpoints = FakeManager()
        mon = HealthMonitor(alpha=1.0, chronic_after=1)
        mon.bind(engine)
        deltas = np.ones(n_ranks)
        deltas[1] = 11.0
        engine.advance(deltas)
        mon.observe(engine, 1)
        assert mon.chronic_ranks() == [1]
        return engine, mon

    def test_bad_params_rejected(self):
        for kwargs in (
            {"warmup": -1},
            {"cooldown": -1},
            {"max_demotions": -1},
        ):
            with pytest.raises(ValueError):
                DemotionPolicy(**kwargs)

    def test_demotes_chronic_rank_and_consumes_budget(self):
        engine, mon = self._chronic_setup()
        pol = DemotionPolicy(warmup=1, max_demotions=1)
        assert pol.consider(engine, mon, 1) == 1
        assert pol.demotions == 1
        # Budget spent: the same chronic rank is not demoted again.
        assert pol.consider(engine, mon, 5) is None

    def test_warmup_defers_demotion(self):
        engine, mon = self._chronic_setup()
        pol = DemotionPolicy(warmup=3)
        assert pol.consider(engine, mon, 2) is None
        assert pol.consider(engine, mon, 3) == 1

    def test_cooldown_separates_demotions(self):
        engine, mon = self._chronic_setup()
        pol = DemotionPolicy(warmup=0, cooldown=3, max_demotions=2)
        assert pol.consider(engine, mon, 1) == 1
        assert pol.consider(engine, mon, 2) is None  # 2 - 1 < 3
        assert pol.consider(engine, mon, 4) == 1

    def test_requires_checkpoint_to_drain_from(self):
        engine, mon = self._chronic_setup()
        engine.checkpoints = None
        assert DemotionPolicy().consider(engine, mon, 1) is None
        engine.checkpoints = FakeManager(ckpt=None)
        assert DemotionPolicy().consider(engine, mon, 1) is None

    def test_never_demotes_last_rank(self):
        engine, mon = self._chronic_setup()
        engine.n_ranks = 1
        assert DemotionPolicy().consider(engine, mon, 1) is None

    def test_healthy_group_yields_none(self):
        engine = FakeEngine(4)
        engine.checkpoints = FakeManager()
        mon = HealthMonitor()
        mon.bind(engine)
        engine.advance([1.0] * 4)
        mon.observe(engine, 1)
        assert DemotionPolicy().consider(engine, mon, 1) is None


class TestAutoscalePolicy:
    def test_bad_params_rejected(self):
        for kwargs in (
            {"hysteresis": -1},
            {"cooldown": -1},
            {"max_grows": -1},
        ):
            with pytest.raises(ValueError):
                AutoscalePolicy(**kwargs)

    def test_shrink_delegates_to_wrapped_policy(self):
        # a one-spare pool keeps the grid (None) where the default
        # prefer-square would shrink onto the survivors
        pol = AutoscalePolicy(shrink=SparePool(spares=1))
        grid = Grid2D(2, 2)
        assert AutoscalePolicy().choose(grid, 3) == Grid2D(1, 3)
        assert pol.choose(grid, 3) is None
        assert pol.shrink.spares == 0

    def test_grow_grid_is_squarest_of_p_plus_one(self):
        pol = AutoscalePolicy()
        assert pol.grow_grid(Grid2D(1, 3)).n_ranks == 4
        assert pol.grow_grid(Grid2D(1, 3)) == Grid2D(2, 2)
        assert pol.grow_grid(Grid2D(2, 2)).n_ranks == 5

    def test_hold_reasons_in_gate_order(self):
        pol = AutoscalePolicy(hysteresis=2, cooldown=2, max_grows=1)
        assert pol.hold_reason(5) == "no-spare"
        pol.spare_arrived(5)
        assert pol.hold_reason(5) == "hysteresis"  # aged 0 < 2
        assert pol.hold_reason(7) is None  # aged 2, no prior regrid
        pol.note_regrid(7)
        assert pol.hold_reason(8) == "cooldown"  # 8 - 7 < 2
        assert pol.hold_reason(9) is None
        pol.grows = 1
        assert pol.hold_reason(9) == "max-grows"

    def test_should_grow_mirrors_hold_reason(self):
        pol = AutoscalePolicy(hysteresis=0, cooldown=0)
        assert not pol.should_grow(1)
        pol.spare_arrived(1)
        assert pol.should_grow(1)

    def test_spare_arrival_clears_held_latch(self):
        pol = AutoscalePolicy()
        pol._held = True
        pol.spare_arrived(3, count=2)
        assert pol._held is False
        assert pol.pending == [3, 3]


class TestAutoscaleRecoveryConfig:
    def test_rejects_plain_grid_policy(self):
        with pytest.raises(ValueError, match="AutoscalePolicy"):
            AutoscaleRecovery(policy=PreferSquare())

    def test_defaults_are_installed(self):
        rec = AutoscaleRecovery()
        assert isinstance(rec.policy, AutoscalePolicy)
        assert isinstance(rec.monitor, HealthMonitor)
        assert isinstance(rec.demotion, DemotionPolicy)
