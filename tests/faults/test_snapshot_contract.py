"""The replica contract the checkpoint format rests on, and cross-grid
resume through the one restore path.

A checkpoint holds each state once: the global vector its row windows
make (``Engine.gather``).  That is the whole state only if, at every
boundary a checkpoint saves at, every cell of every rank — the R row
cells and the C column cells of each vertex — equals what
``Fleet.fill_windows`` writes from that vector.  The first test checks
exactly that for every resumable algorithm on six grid shapes (pointer
jumping keeps its pointers as loop state, so its boundaries hold no
state array to check); a pattern that forgot to refresh a replica (say, ``sparse_push`` skipping
its row-stage assignment) fails it.

The second resumes the algorithms no fault campaign runs from a
superstep-2 checkpoint on another grid — a shrink from 4x4 and a grow
from 2x2 — and asks for the fault-free answer, bit for bit.

The third holds what a checkpoint may leave out.  A BFS frontier is
exactly the row cells with ``level == depth`` at every boundary but the
last one after a superstep that found nothing (which ends the run), so
``bfs`` and ``bfs_batch`` save no frontier and a resume derives it —
for ``bfs_batch`` per lane, in the order the loop builds it.  Resumed
in place from each of its checkpoints, a run must then be the
uninterrupted one bit for bit: answer, levels, every clock mark and
every counter.
"""

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.algorithms.batch import bfs_batch, sssp_batch
from repro.algorithms.components import CC_VARIANTS
from repro.comm.grid import Grid2D
from repro.core.hooks import BoundaryHook
from repro.faults import CheckpointManager, migrate_checkpoint
from repro.graph import rmat

GRAPH = rmat(10, seed=5).with_random_weights(seed=9)
ROOTS = [0, 3, 17]


def _personalization(n):
    v = np.arange(n)
    return (v % 7 == 0) * (1.0 + v % 3)


#: Every resumable entry point, as ``run(engine, resume)``.
RESUMABLE = {
    "bfs": lambda e, r=False: algorithms.bfs(e, root=3, resume=r),
    "bfs_batch": lambda e, r=False: bfs_batch(e, ROOTS, resume=r),
    "sssp": lambda e, r=False: algorithms.sssp(e, root=3, resume=r),
    "sssp_batch": lambda e, r=False: sssp_batch(e, ROOTS, resume=r),
    **{
        f"cc{name}": (
            lambda e, r=False, kw=kw: algorithms.connected_components(e, resume=r, **kw)
        )
        for name, kw in CC_VARIANTS.items()
    },
    "pagerank": lambda e, r=False: algorithms.pagerank(e, iterations=6, resume=r),
    "pagerank_weighted": lambda e, r=False: algorithms.pagerank(
        e, iterations=6, weighted=True, resume=r
    ),
    "pagerank_personalized_tol": lambda e, r=False: algorithms.pagerank(
        e,
        personalization=_personalization(e.partition.n_vertices),
        tol=1e-9,
        resume=r,
    ),
    "label_propagation": lambda e, r=False: algorithms.label_propagation(e, resume=r),
    "pointer_jumping": lambda e, r=False: algorithms.pointer_jumping(e, resume=r),
}

#: (R, C)
GRIDS = [(1, 4), (4, 1), (2, 2), (2, 4), (3, 5), (4, 4)]


class ReplicaProbe(BoundaryHook):
    """At every boundary a checkpoint would save at, rebuild each state
    from its row-window vector and compare it with the live one."""

    slot, phases = "replica_probe", ("checkpoint",)

    def __init__(self):
        self.boundaries = 0
        self.mismatches: list = []

    def on_phase(self, phase, engine, boundary):
        if boundary.state is None:
            return
        self.boundaries += 1
        fleet = engine.fleet
        for name in fleet.views[0]:
            live = fleet.stacked(name)
            rebuilt = np.zeros_like(live)
            vec = engine.gather(name)
            fleet.fill_windows(rebuilt, engine.partition.to_relabeled_order(vec))
            if rebuilt.tobytes() != live.tobytes():
                self.mismatches.append((boundary.superstep, name))


@pytest.mark.parametrize("R,C", GRIDS, ids=[f"{R}x{C}" for R, C in GRIDS])
@pytest.mark.parametrize("algo", sorted(RESUMABLE))
def test_a_row_window_vector_is_the_whole_state(algo, R, C):
    engine = Engine(GRAPH, grid=Grid2D(R=R, C=C))
    probe = ReplicaProbe()
    engine.attach(probe)
    RESUMABLE[algo](engine)
    assert probe.boundaries > 0
    assert probe.mismatches == []


#: The algorithms no campaign runs (the campaigns run BFS, CC, PageRank).
UNCAMPAIGNED = ["label_propagation", "pointer_jumping", "bfs_batch", "sssp_batch", "sssp"]

#: (saved on, resumed on), as (R, C) pairs: three shrinks and a grow.
MOVES = {
    "4x4-to-3x5": ((4, 4), (3, 5)),
    "4x4-to-1x7": ((4, 4), (1, 7)),
    "4x4-to-5x1": ((4, 4), (5, 1)),
    "2x2-to-4x4": ((2, 2), (4, 4)),
}


@pytest.mark.parametrize("move", sorted(MOVES))
@pytest.mark.parametrize("algo", UNCAMPAIGNED)
def test_resume_on_another_grid_is_bit_identical(algo, move):
    (R, C), (R2, C2) = MOVES[move]
    run = RESUMABLE[algo]
    engine = Engine(GRAPH, grid=Grid2D(R=R, C=C))
    engine.attach_checkpoints(CheckpointManager(interval=2, keep=100))
    ref = run(engine)
    (ckpt,) = [c for c in engine.checkpoints.checkpoints if c.superstep == 2]

    moved = engine.rebuild_on_grid(Grid2D(R=R2, C=C2))
    migrated, cost_s = migrate_checkpoint(ckpt, moved)
    assert cost_s > 0
    moved.checkpoints.adopt(migrated)
    res = run(moved, True)
    assert res.values.dtype == ref.values.dtype
    assert res.values.tobytes() == ref.values.tobytes()


#: The BFS entry points whose checkpoints hold no frontier.
DERIVED_FRONTIER = {
    "bfs": lambda e, r=False: algorithms.bfs(e, root=3, resume=r),
    "bfs_batch": lambda e, r=False: bfs_batch(e, ROOTS, resume=r),
    "bfs_batch_deep_root": lambda e, r=False: bfs_batch(e, [17, 500, 1], resume=r),
}


def _guarded(grid):
    """An engine that checkpoints every superstep and records the queue
    degrees of every edge-kernel charge, in the order they are charged
    (the frontier's order, entry for entry)."""
    engine = Engine(GRAPH, grid=Grid2D(R=grid[0], C=grid[1]))
    engine.attach_checkpoints(CheckpointManager(interval=1, keep=100))
    engine.charged = []
    charge = engine.charge_edges

    def charge_edges(rank, queue_degrees, *args, **kwargs):
        engine.charged.append((rank, np.asarray(queue_degrees).tobytes()))
        return charge(rank, queue_degrees, *args, **kwargs)

    engine.charge_edges = charge_edges
    return engine


@pytest.mark.parametrize("R,C", GRIDS, ids=[f"{R}x{C}" for R, C in GRIDS])
@pytest.mark.parametrize("algo", sorted(DERIVED_FRONTIER))
def test_a_resume_at_every_boundary_is_the_uninterrupted_run(algo, R, C):
    run = DERIVED_FRONTIER[algo]
    engine = _guarded((R, C))
    ref = run(engine)
    saved = list(engine.checkpoints.checkpoints)
    assert len(saved) == ref.iterations
    for ckpt in saved:
        assert "frontier" not in ckpt.algo_state
        again = _guarded((R, C))
        again.checkpoints.adopt(ckpt)
        res = run(again, True)
        # every queue after the resume point, in the same order
        assert again.charged == engine.charged[len(engine.charged) - len(again.charged) :]
        assert res.values.tobytes() == ref.values.tobytes(), ckpt.superstep
        assert res.extra["levels"].tobytes() == ref.extra["levels"].tobytes()
        assert res.extra["directions"] == ref.extra["directions"]
        assert res.timings == ref.timings, ckpt.superstep
        assert res.counters == ref.counters
