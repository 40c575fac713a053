"""Shrink then grow back to the original grid is the identity.

The autoscale contract behind ``demote-then-grow-back``: restoring a
checkpoint onto a survivor grid (a demotion), checkpointing there, and
restoring that checkpoint back onto the original grid (a spare
adoption) must leave every per-rank state window bit-identical to the
pre-shrink engine's — same partition, same GID relabeling, same
payload bytes.  Exhaustively over every ``factor_pairs`` grid of 2-16
ranks, plus Hypothesis-driven random down-grids and payloads.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.comm.grid import factor_pairs, squarest_grid
from repro.faults import Checkpoint, CheckpointManager, migrate_checkpoint
from repro.graph import rmat

GRAPH = rmat(6, seed=5)

DTYPES = [np.float64, np.float32, np.int64, np.int32, np.bool_]


def _vectors(n, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for dt in DTYPES:
        name = f"s_{np.dtype(dt).name}"
        if dt is np.bool_:
            out[name] = rng.integers(0, 2, n).astype(dt)
        elif np.issubdtype(dt, np.floating):
            out[name] = rng.standard_normal(n).astype(dt)
        else:
            out[name] = rng.integers(0, np.iinfo(dt).max, n).astype(dt)
    # A 2-D batched-lane state (k=3 lanes), the shape bfs_batch saves.
    out["s_lanes"] = rng.standard_normal((n, 3))
    return out


def _checkpoint_of(engine, vectors):
    return Checkpoint(
        superstep=1,
        algo="prop",
        state=vectors,
        counters=engine.counters.state_dict(),
        clocks=engine.clocks.state_dict(),
        algo_state={},
    )


def _windows(engine, names):
    return {name: [a.copy() for a in engine.states(name)] for name in names}


def _assert_down_up_identity(grid, down_grid, seed=0):
    vectors = _vectors(GRAPH.n_vertices, seed)
    eng_orig = Engine(GRAPH, grid=grid)
    eng_down = Engine(GRAPH, grid=down_grid)
    eng_orig.restore(_checkpoint_of(eng_orig, vectors))
    before = _windows(eng_orig, vectors)
    saving = CheckpointManager(checkpoint_bw=None)
    original = saving.save(eng_orig, 1, "prop", dict)

    shrunk, down_s = migrate_checkpoint(original, eng_down)
    eng_down.restore(shrunk)
    # Grow back onto an engine with the *original* grid from what the
    # shrunk run checkpoints: the windows must be bit-identical to the
    # pre-shrink engine's.
    eng_back = Engine(GRAPH, grid=grid)
    regrown, up_s = migrate_checkpoint(saving.save(eng_down, 1, "prop", dict), eng_back)
    assert down_s > 0 and up_s > 0
    assert np.array_equal(eng_back.partition.perm, eng_orig.partition.perm)
    eng_back.restore(regrown)
    after = _windows(eng_back, vectors)
    assert before.keys() == after.keys()
    for name in before:
        for rank, (a, b) in enumerate(zip(before[name], after[name])):
            assert b.dtype == a.dtype
            assert np.array_equal(b, a), (name, rank)
    for name, vec in vectors.items():
        assert np.array_equal(regrown.state[name], vec)
        assert np.array_equal(eng_back.gather(name), vec)


ALL_GRIDS = [g for n in range(2, 17) for g in factor_pairs(n)]


@pytest.mark.parametrize(
    "grid", ALL_GRIDS, ids=lambda g: f"p{g.n_ranks}-{g.C}x{g.R}"
)
def test_demote_grow_back_round_trip_every_grid(grid):
    """Down to the squarest survivor grid and back: identity."""
    _assert_down_up_identity(grid, squarest_grid(grid.n_ranks - 1))


def test_grow_grid_inverts_squarest_shrink():
    """For squarest grids, a grow's target ``squarest_grid(p + 1)`` is
    exactly the grid a one-rank demotion shrank away from."""
    for n in range(2, 17):
        down = squarest_grid(n - 1)
        assert squarest_grid(down.n_ranks + 1) == squarest_grid(n)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=2, max_value=16),
    pick=st.integers(min_value=0, max_value=10**6),
    pick_down=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_down_grids_round_trip(n, pick, pick_down, seed):
    """Any down-grid (not just the squarest) round-trips bit-identically
    with arbitrary payloads."""
    grids = factor_pairs(n)
    down_grids = factor_pairs(max(1, n - 1))
    _assert_down_up_identity(
        grids[pick % len(grids)],
        down_grids[pick_down % len(down_grids)],
        seed=seed,
    )
