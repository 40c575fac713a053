"""The superstep-boundary pipeline: declared phase order, not prose.

``repro.core.hooks.BOUNDARY_PHASES`` is the one statement of what runs
when at a superstep boundary.  These tests pin the two guarantees the
order exists for — state is verified before it is checkpointed, and
checkpointed before the autoscaler may demote — and that the engine
treats hooks generically (any attach order, carried across rebuilds).
"""

import itertools

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.comm.grid import Grid2D
from repro.core.hooks import BOUNDARY_PHASES, BoundaryHook
from repro.faults import (
    CheckpointManager,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HealthMonitor,
    IntegrityLedger,
    IntegrityViolation,
    Recovery,
    drive_elastic,
)
from repro.graph import rmat

GRAPH = rmat(7, seed=3)


def five_hooks(plan=FaultPlan([])):
    """One of each hook class, keyed by slot.  The autoscaler holds
    (extreme hysteresis), so it fires without ever raising."""
    autoscaler = Recovery("autoscale", hysteresis=10**6)
    return {
        "faults": FaultInjector(plan),
        "integrity": IntegrityLedger(),
        "checkpoints": CheckpointManager(interval=1),
        "health": autoscaler.monitor,
        "autoscaler": autoscaler,
    }


def spy(hook, log, method):
    """Log every call of ``hook.method`` as ``(method, slot, args)``,
    non-string arguments by ``id`` — holding the engine itself would
    tie it into a reference cycle with its own hooks."""
    original = getattr(hook, method)

    def wrapper(*args):
        seen = tuple(a if isinstance(a, str) else id(a) for a in args)
        log.append((method, hook.slot, seen))
        return original(*args)

    setattr(hook, method, wrapper)


class TestPhaseOrder:
    def test_the_declared_order(self):
        assert BOUNDARY_PHASES == (
            "inject", "verify", "checkpoint", "arrivals", "observe", "decide",
        )

    @pytest.mark.parametrize(
        "order",
        list(itertools.permutations(sorted(five_hooks())))[::17],
        ids="-".join,
    )
    def test_firing_sequence_is_the_phase_tuple_in_any_attach_order(
        self, order
    ):
        hooks, log = five_hooks(), []
        engine = Engine(GRAPH, 4)
        for slot in order:
            spy(hooks[slot], log, "on_phase")
            engine.attach(hooks[slot])
        res = algorithms.connected_components(engine)
        fired = [(args[0], slot) for _, slot, args in log]
        assert fired == res.iterations * [
            ("inject", "faults"),
            ("verify", "integrity"),
            ("checkpoint", "checkpoints"),
            ("arrivals", "faults"),
            ("observe", "health"),
            ("decide", "autoscaler"),
        ]
        assert tuple(p for p, _ in fired[:6]) == BOUNDARY_PHASES

    def test_every_hook_class_declares_known_phases(self):
        for hook in five_hooks().values():
            assert hook.phases and set(hook.phases) <= set(BOUNDARY_PHASES)

    def test_nothing_attached_fires_nothing(self):
        engine = Engine(GRAPH, 4)
        assert engine.checkpoints is None and engine.integrity is None
        algorithms.pagerank(engine, iterations=2)
        assert engine.fault_events == []


class TestVerifiedBeforeCheckpointed:
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    def test_flip_on_a_checkpoint_due_boundary_is_never_saved(self, order):
        """A memflip landing on boundary 2 — where a checkpoint is due —
        is caught before the save: the series ends at superstep 1."""
        engine = Engine(GRAPH, 4)
        mgr = CheckpointManager(interval=1)
        attach = [
            lambda: engine.attach_checkpoints(mgr),
            lambda: engine.attach_integrity(IntegrityLedger()),
            lambda: engine.attach_faults(
                FaultPlan([FaultSpec("memflip", 2, rank=1, bit=137)])
            ),
        ]
        for i in order:
            attach[i]()
        with pytest.raises(IntegrityViolation, match="at superstep 2"):
            algorithms.pagerank(engine, iterations=5)
        assert [c.superstep for c in mgr.checkpoints] == [1]
        kinds = [e["kind"] for e in engine.fault_events]
        assert kinds == ["memflip", "integrity"]

    def test_ledger_verifies_off_interval_when_a_checkpoint_is_due(self):
        engine = Engine(GRAPH, 4)
        ledger = IntegrityLedger(interval=1000)
        engine.attach_integrity(ledger)
        engine.attach_checkpoints(CheckpointManager(interval=2))
        algorithms.pagerank(engine, iterations=5)
        assert [r.superstep for r in ledger.rows] == [2, 4]


class _CountingManager(CheckpointManager):
    """Records every boundary it is offered (saved or not)."""

    def __init__(self):
        super().__init__(interval=1)
        self.offered = []

    def maybe_save(self, engine, superstep, algo, state):
        self.offered.append(superstep)
        return super().maybe_save(engine, superstep, algo, state)


class TestCheckpointedBeforeDemoted:
    def test_demotion_resumes_from_its_own_boundary(self):
        """The watchdog demotes at boundary 2; the checkpoint of boundary
        2 already exists, so the regridded run recomputes nothing."""
        ref = algorithms.connected_components(Engine(GRAPH, 4))

        engine = Engine(GRAPH, 4)
        mgr = _CountingManager()
        engine.attach_checkpoints(mgr)
        engine.attach_faults(
            FaultPlan(
                [
                    FaultSpec("straggler", 1, rank=1, delay_s=2.0),
                    FaultSpec("straggler", 2, rank=1, delay_s=2.0),
                ]
            ),
            max_retries=2,
        )
        recovery = Recovery(
            "autoscale", monitor=HealthMonitor(chronic_after=2)
        )
        drained_from = []
        recover = recovery.recover

        def recording_recover(eng, failure):
            drained_from.append(
                (failure.superstep, eng.checkpoints.latest().superstep)
            )
            return recover(eng, failure)

        recovery.recover = recording_recover
        res = drive_elastic(
            lambda e, r: algorithms.connected_components(e, resume=r),
            engine,
            recovery,
        )
        assert drained_from == [(2, 2)]
        assert res.extra["elastic"]["final_grid"] == (1, 3)
        assert np.array_equal(ref.values, res.values)
        # Every superstep reached its boundary exactly once.
        assert mgr.offered == list(range(1, ref.iterations + 1))


class _Probe(BoundaryHook):
    """A hook class the engine has never heard of."""

    slot = "probe"
    phases = ("observe",)

    def __init__(self):
        self.attached, self.fired = [], []

    def on_attach(self, engine):
        self.attached.append(id(engine))

    def on_phase(self, phase, engine, boundary):
        self.fired.append((id(engine), boundary.superstep))


class TestHooksFollowTheRun:
    def test_rebuild_on_grid_carries_every_attached_hook(self):
        hooks, log = five_hooks(), []
        hooks["probe"] = _Probe()
        engine = Engine(GRAPH, 4)
        for hook in hooks.values():
            engine.attach(hook)
        for hook in hooks.values():
            spy(hook, log, "on_attach")
        new = engine.rebuild_on_grid(Grid2D(R=1, C=3))
        assert [(slot, args) for _, slot, args in log] == [
            (slot, (id(new),)) for slot in hooks
        ]
        assert hooks["probe"].attached == [id(engine), id(new)]
        assert new.checkpoints is hooks["checkpoints"]
        assert new.health is hooks["health"]
        assert new.integrity is hooks["integrity"]
        assert hooks["health"].n_ranks == 3  # re-baselined on the new grid
        assert new.comm.guard.__self__ is hooks["faults"]
        new.superstep_boundary()
        assert hooks["probe"].fired == [(id(new), 1)]

    def test_restore_and_reset_reach_every_hook(self):
        hooks, log = five_hooks(), []
        engine = Engine(GRAPH, 4)
        for hook in hooks.values():
            engine.attach(hook)
            spy(hook, log, "on_restore")
            spy(hook, log, "on_reset")
        algorithms.pagerank(engine, iterations=3)
        ckpt = engine.checkpoints.latest()
        log.clear()
        engine.restore(ckpt)
        assert [(m, slot) for m, slot, _ in log] == [
            ("on_restore", slot) for slot in hooks
        ]
        assert hooks["faults"].superstep == ckpt.superstep + 1
        log.clear()
        engine.reset_timers()
        assert [(m, slot) for m, slot, _ in log] == [
            ("on_reset", slot) for slot in hooks
        ]
        assert engine.checkpoints.latest() is None
        assert hooks["integrity"].rows == []
