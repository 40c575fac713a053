"""The stacked 2.5D reduction, coloring, k-core, matching and pointer
jumping held to per-rank oracles written from their definitions, and
the AllToAllV stage held to what each group is owed.

Each algorithm's serial reference is its oracle: Label Propagation's
synchronous steps (every superstep leaves every rank's row windows and
ghosts at that step's labels, and its checkpoint keeps the neighbors of
the vertices that moved, as the row-group leaders' original ids) and
pointer jumping's doubling steps (each checkpoint keeps the pointers
after that jump and which of them stopped moving); k-core, coloring and
matching end with every rank's windows at the serial answer, in as
many rounds as on one rank.  Checked on blocking and overlapped
engines over tall, wide, non-divisible and 256-rank grids.  The clock
lanes are pinned by ``tests/golden_clocks.json``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    core_numbers,
    greedy_coloring,
    label_propagation,
    max_weight_matching,
    pointer_jumping,
)
from repro.comm.grid import Grid2D
from repro.core import fleet as fleet_mod
from repro.core.engine import Engine
from repro.core.program import init_vertex_state
from repro.graph import rmat
from repro.patterns.complex import TRIPLE_DTYPE, neighbor_histograms
from repro.reference import serial

from ..algorithms.test_kcore import nx_core_numbers
from ..comm.test_stages import _alltoallv_due, _grid_comms, _hold_to_what_is_owed
from ..conftest import permute
from ..core.test_program_fused import GRIDS, assert_windows_hold, encoded_queue, neighbors_of

#: algorithm -> (entry point, the state its answer ends in)
ALGORITHMS = {
    "lp": (label_propagation, "label"),
    "kcore": (core_numbers, "core"),
    "coloring": (lambda e: greedy_coloring(e, seed=1), "color"),
    "mwm": (max_weight_matching, "mate"),
    "pj": (pointer_jumping, None),
}


def lp_supersteps(graph, iterations: int = 20) -> list:
    """Label Propagation's synchronous steps: ``(labels, moved)`` after
    each, up to the first that moves nothing or ``iterations``."""
    steps, labels = [], np.arange(graph.n_vertices)
    while len(steps) < iterations and (not steps or steps[-1][1].size):
        new = serial.label_propagation(graph, iterations=len(steps) + 1)
        steps.append((new, np.flatnonzero(new != labels)))
        labels = new
    return steps


def pj_supersteps(graph) -> list:
    """Pointer doubling from the initial forest: ``(parent, converged)``
    after each jump, up to the first after which no pointer moved."""
    steps, parent = [], serial.initial_parents(graph)
    while not steps or not steps[-1][1].all():
        jumped = parent[parent]
        steps.append((jumped, jumped == parent))
        parent = jumped
    return steps


@pytest.fixture(scope="module")
def graph():
    return rmat(8, seed=11).with_random_weights(seed=5)


@pytest.fixture(scope="module")
def oracle(graph):
    """Each algorithm's expected steps or answer, and its round count on
    one rank."""
    one_rank = {}
    for which in ("kcore", "coloring", "mwm"):
        one_rank[which] = ALGORITHMS[which][0](Engine(graph, grid=Grid2D(R=1, C=1))).iterations
    return {
        "lp": lp_supersteps(graph),
        "pj": pj_supersteps(graph),
        "kcore": nx_core_numbers(graph),
        "coloring": serial.serial_jones_plassmann(graph, seed=1),
        "mwm": serial.locally_dominant_matching(graph),
        "rounds": one_rank,
    }


def _run(graph, grid, overlap, which):
    """The run, and what every superstep boundary saw: the checkpoint
    state and each rank's copy of the answer's state."""
    run, name = ALGORITHMS[which]
    engine = Engine(graph, grid=grid, overlap=overlap)
    seen = []
    boundary = engine.superstep_boundary

    def record(tag, state=None):
        states = [ctx.get(name).copy() for ctx in engine] if name else None
        seen.append((None if state is None else state(), states))
        return boundary(tag, state)

    engine.superstep_boundary = record
    return engine, run(engine), seen


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlap"])
@pytest.mark.parametrize("grid", list(GRIDS.values()), ids=list(GRIDS))
@pytest.mark.parametrize("which", list(ALGORITHMS))
def test_stacked_run_equals_per_rank_oracle(graph, oracle, grid, overlap, which):
    engine, got, seen = _run(graph, grid, overlap, which)
    assert got.iterations > 1
    if which == "lp":
        steps = oracle["lp"]
        assert got.values.tolist() == steps[-1][0].tolist()
        assert got.iterations == len(steps) == len(seen)
        for k, ((saved, states), (labels, moved)) in enumerate(zip(seen, steps)):
            assert_windows_hold(engine, states, labels, k)
            want = encoded_queue(engine, neighbors_of(graph, moved))
            assert saved["active"].tolist() == want.tolist(), k
    elif which == "pj":
        steps = oracle["pj"]
        assert got.values.tolist() == steps[-1][0].tolist()
        assert got.iterations == len(steps) == len(seen)
        for k, ((saved, _), (parent, converged)) in enumerate(zip(seen, steps)):
            assert saved["iterations"] == k + 1
            assert saved["done"] == (k + 1 == len(steps))
            assert saved["parent"].tolist() == parent.tolist(), k
            assert saved["converged"].tolist() == converged.tolist(), k
    else:
        want = oracle[which]
        assert got.values.tolist() == want.tolist()
        assert got.iterations == oracle["rounds"][which] == len(seen)
        assert_windows_hold(engine, seen[-1][1], want)


@pytest.mark.parametrize("which", ["lp", "kcore", "coloring"])
def test_histogram_edges_spanning_slices(monkeypatch, which):
    """With a tiny edge budget every rank's histogram edges span many
    expansion slices: the stacked histogram is still each rank's
    ``Counter`` of ``(row GID, neighbor label)`` over its own edges,
    sorted, rank-major; and each algorithm built on it still matches
    its serial reference."""
    graph, grid = rmat(6, seed=2).with_random_weights(seed=3), Grid2D(R=2, C=2)
    monkeypatch.setattr(fleet_mod, "EXPAND_EDGE_BUDGET", 4)
    engine = Engine(graph, grid=grid)
    init_vertex_state(engine, "label", lambda gids: gids % 5)
    rows = np.flatnonzero(engine.fleet.row_mask)
    per_slice = [np.unique(owner) for owner, _ in engine.fleet.expand(rows)]
    for rank in range(grid.n_ranks):
        assert sum(rank in ranks for ranks in per_slice) > 1  # spans slices
    triples, counts = neighbor_histograms(engine, "label", rows)

    part = engine.partition
    relabeled = permute(graph, part.perm)
    label = part.to_relabeled_order(np.arange(graph.n_vertices) % 5)
    want = []
    for ctx in engine:
        lm = ctx.localmap
        seen = Counter(
            (u, float(label[v]))
            for u in range(lm.row_start, lm.row_stop)
            for v in relabeled.neighbors(u).tolist()
            if lm.col_start <= v < lm.col_stop
        )
        entries = [(u, lab, seen[u, lab]) for u, lab in sorted(seen)]
        want.append(np.array(entries, dtype=TRIPLE_DTYPE))
    assert triples.dtype == TRIPLE_DTYPE
    assert counts.tolist() == [w.size for w in want]
    assert triples.tobytes() == np.concatenate(want).tobytes()

    engine = Engine(graph, grid=grid)
    if which == "lp":
        got, ref = label_propagation(engine).values, serial.label_propagation(graph)
    elif which == "kcore":
        got, ref = core_numbers(engine).values, nx_core_numbers(graph)
    else:
        got, ref = greedy_coloring(engine).values, serial.serial_jones_plassmann(graph)
    assert np.array_equal(got, ref)


# ----------------------------------------------------------------------
# the AllToAllV stage on an engine's row or column groups
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from([Grid2D(R=2, C=2), Grid2D(R=1, C=4), Grid2D(R=4, C=1),
                          Grid2D(R=3, C=2), Grid2D(R=2, C=4)]),
    axis=st.sampled_from(["row", "col"]),
    split_phase=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_alltoallv_stage_equals_the_per_list_calls(grid, axis, split_phase, seed):
    """On an engine's row or column groups, blocking or split-phase and
    every handle waited: each receiver's rows (senders in group order),
    and each group charged and counted as one call of its own would
    be — the cost of its largest pair — from uneven clocks."""
    (staged, oracle), groups = _grid_comms(grid, seed)
    groups = groups[axis]
    form = "start_alltoallv" if split_phase else "alltoallv"
    rng = np.random.default_rng(seed)
    call, owed, check = _alltoallv_due(oracle, grid.n_ranks, groups, rng, 3, 2, True, split_phase)
    _hold_to_what_is_owed(staged, oracle, form, groups, call, owed, check, None, rng)


@pytest.mark.parametrize("split_phase", [False, True], ids=["blocking", "split-phase"])
@pytest.mark.parametrize("fail_at", [0, 1, 3])
def test_a_guard_raising_at_group_g_of_an_alltoallv_stage(fail_at, split_phase):
    """A guard that raises at group ``g`` of an engine's row groups: the
    groups before ``g`` moved, were counted and charged (on ``wait`` for
    split-phase, where every group was issued and counted first); ``g``
    and the groups after it were not charged.  The guard saw each
    group's send parts sender-major (blocking) or its members' received
    rows (split-phase)."""
    (staged, oracle), groups = _grid_comms(Grid2D(R=2, C=4), 11)
    groups = groups["row"]
    form = "start_alltoallv" if split_phase else "alltoallv"
    rng = np.random.default_rng(5)
    call, owed, check = _alltoallv_due(oracle, 8, groups, rng, 3, 1, True, split_phase)
    _hold_to_what_is_owed(staged, oracle, form, groups, call, owed, check, fail_at, rng)
