"""Faults on the convergence stage: the reduced count steers the loop.

A superstep that ends in a dense exchange reads its update count from
the exchange's Broadcast stage, where every member's partial count
rides as a tail (a pull's on the column groups, a push's on the row
groups).  A fault inside that stage must be caught like any other: a
corrupted or dropped attempt is detected and retried, a crash is
recovered from the last checkpoint, and the run ends with the
fault-free answer, iteration count and counters.  The injector is
shown the count-carrying Broadcast stages only, so a plan's first
``grouped_broadcast`` of the superstep is the one that carries the
count; every group of the stage must pass through the guard, its
members' tail words in the payload it checks.
"""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.comm.grid import Grid2D
from repro.faults import CheckpointManager, FaultPlan, FaultSpec, drive_elastic
from repro.graph import rmat

from ..conftest import watch_convergence

RUNS = {
    # root 0: two top-down supersteps, then three bottom-up ones (a
    # pull: the count rides the column groups)
    "bfs": (lambda e, resume: algorithms.bfs(e, root=0, resume=resume), 3, "col"),
    # dense push: the count rides the row groups
    "cc_dense": (
        lambda e, resume: algorithms.connected_components(
            e, mode="dense", resume=resume
        ),
        2,
        "row",
    ),
}

FAULTS = {
    "corruption": dict(bit=5),
    "transient": dict(count=2),
    "crash": dict(rank=5),
}


def _engine():
    engine = Engine(rmat(10, seed=5), grid=Grid2D(R=2, C=4))
    engine.attach_checkpoints(CheckpointManager(interval=1))
    return engine


def _guard_convergence_only(engine) -> list:
    """Route only the Broadcast stages that carry a count through the
    attached injector; returns every group it guarded, with the words
    its payload ends with (one per member)."""
    guard, stage = engine.comm.guard, engine.comm.grouped_broadcast_stage
    guarded, inside = [], []

    def convergence_guard(clocks, kind, ranks, payload):
        if inside:
            guarded.append((list(ranks), payload[len(payload) - len(ranks) :]))
            guard(clocks, kind, ranks, payload)

    def grouped_broadcast_stage(groups, calls, nic_sharing=1, tail=None):
        inside.extend([True] if tail is not None else [])
        try:
            return stage(groups, calls, nic_sharing, tail)
        finally:
            inside.clear()

    engine.comm.guard = convergence_guard
    engine.comm.grouped_broadcast_stage = grouped_broadcast_stage
    return guarded


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("algo", sorted(RUNS))
def test_a_fault_in_the_convergence_stage_is_caught(algo, fault):
    runner, step, axis = RUNS[algo]
    engine = _engine()
    counts = watch_convergence(engine)
    ref = runner(engine, False)
    if algo == "bfs":
        assert ref.extra["directions"][step - 1] == "bottom-up"
    values = [c["value"] for c in counts]

    engine = _engine()
    spec = FaultSpec(fault, step, collective="grouped_broadcast", **FAULTS[fault])
    injector = engine.attach_faults(FaultPlan([spec]))
    guarded = _guard_convergence_only(engine)
    res = drive_elastic(runner, engine)

    assert np.array_equal(res.values, ref.values)
    assert res.iterations == ref.iterations
    assert res.counters == ref.counters
    [event] = injector.events[:1]
    assert (event.kind, event.superstep, event.collective) == (
        fault, step, "grouped_broadcast"
    )
    assert event.detected
    assert res.extra["elastic"]["resumes"] == (fault == "crash")
    if fault != "crash":  # the retries' backoff, nothing else
        assert res.timings.recovery > 0
    # every group of every count-carrying stage went through the guard,
    # its members' partial counts behind the roots' payloads, summing to
    # the stage's count; a crash interrupts the stage of its superstep
    # at rank 5's group, and the resumed superstep issues it again
    groups = [ranks for _, ranks in getattr(engine, f"{axis}_groups")()]
    before = ref.extra.get("directions", ["dense"] * step)[: step - 1]
    first = len(before) - before.count("top-down")  # count stages before the step's
    crashed = groups[: next(i for i, g in enumerate(groups) if 5 in g) + 1]
    expected = [(g, v) for v in values for g in groups]
    if fault == "crash":
        at = first * len(groups)
        expected[at:at] = [(g, values[first]) for g in crashed]
    assert [g for g, _ in guarded] == [g for g, _ in expected]
    assert [float(np.sum(words)) for _, words in guarded] == [v for _, v in expected]
