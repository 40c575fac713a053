"""Faults on the convergence stage: the reduced count steers the loop.

A superstep's update count comes from ``Engine.reduce_partials`` and
the loop reads it, so a fault inside that stage must be caught like
any other: a corrupted or dropped attempt is detected and retried, a
crash is recovered from the last checkpoint, and the run ends with the
fault-free answer, iteration count and counters.  The injector is
shown the convergence stage's collectives only, so a plan's first
``allreduce`` of the superstep is the stage's, not the dense exchange
before it; every group of the stage must pass through the guard.
"""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.comm.grid import Grid2D
from repro.faults import CheckpointManager, FaultPlan, FaultSpec, drive_elastic
from repro.graph import rmat

RUNS = {
    # root 0: two top-down supersteps, then three bottom-up ones
    "bfs": (lambda e, resume: algorithms.bfs(e, root=0, resume=resume), 3),
    "cc_dense": (
        lambda e, resume: algorithms.connected_components(
            e, mode="dense", resume=resume
        ),
        2,
    ),
}

FAULTS = {
    "corruption": dict(bit=5),
    "transient": dict(count=2),
    "crash": dict(rank=5),  # in the second column group of 2x4
}


def _engine():
    engine = Engine(rmat(10, seed=5), grid=Grid2D(R=2, C=4))
    engine.attach_checkpoints(CheckpointManager(interval=1))
    return engine


def _guard_convergence_only(engine) -> list:
    """Route only the collectives issued inside ``reduce_partials``
    through the attached injector; returns the groups it guarded."""
    guard, reduce = engine.comm.guard, engine.reduce_partials
    guarded, inside = [], []

    def convergence_guard(clocks, kind, ranks, payload):
        if inside:
            guarded.append(list(ranks))
            guard(clocks, kind, ranks, payload)

    def reduce_partials(*args, **kwargs):
        inside.append(True)
        try:
            return reduce(*args, **kwargs)
        finally:
            inside.clear()

    engine.comm.guard = convergence_guard
    engine.reduce_partials = reduce_partials
    return guarded


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("algo", sorted(RUNS))
def test_a_fault_in_the_convergence_stage_is_caught(algo, fault):
    runner, step = RUNS[algo]
    ref = runner(_engine(), False)
    if algo == "bfs":
        assert ref.extra["directions"][step - 1] == "bottom-up"

    engine = _engine()
    spec = FaultSpec(fault, step, collective="allreduce", **FAULTS[fault])
    injector = engine.attach_faults(FaultPlan([spec]))
    guarded = _guard_convergence_only(engine)
    res = drive_elastic(runner, engine)

    assert np.array_equal(res.values, ref.values)
    assert res.iterations == ref.iterations
    assert res.counters == ref.counters
    [event] = injector.events[:1]
    assert (event.kind, event.superstep, event.collective) == (fault, step, "allreduce")
    assert event.detected
    assert res.extra["elastic"]["resumes"] == (fault == "crash")
    if fault != "crash":  # the retries' backoff, nothing else
        assert res.timings.recovery > 0
    # every group of every convergence stage went through the guard; a
    # crash (rank 5 sits in the second column group) interrupts one
    # stage, which the resumed superstep issues again
    columns = [ranks for _, ranks in engine.col_groups()]
    stages = 3 if algo == "bfs" else ref.iterations
    assert guarded == columns * (stages + (fault == "crash"))
