"""A checkpoint restores onto every 2D layout bit-identically.

The elastic-recovery invariant: a checkpoint holds each state once, a
global vector in original vertex order, so a move re-expresses nothing.
Saving states on one grid, migrating the checkpoint onto any other grid
and restoring it there writes every rank's row and column windows with
exactly the saved values — for every dtype, under the GID relabeling
change the new grid induces.  Exhaustively over every ``factor_pairs``
grid of 2-16 ranks, plus Hypothesis-driven random grid pairs and
payloads.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.comm.grid import factor_pairs, squarest_grid
from repro.faults import CheckpointManager, migrate_checkpoint
from repro.graph import rmat

from ..conftest import scatter_global

GRAPH = rmat(6, seed=5)

DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint16, np.bool_]


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
    return out


def _assert_windows_hold(engine, vectors):
    """Every rank's windows of every state hold ``vectors``' values."""
    for name, vec in vectors.items():
        assert np.array_equal(engine.gather(name), vec)
        for rank, arr in enumerate(engine.states(name)):
            want = scatter_global(engine.partition, vec, rank)
            assert arr.dtype == vec.dtype
            assert arr.tobytes() == want.tobytes(), (name, rank)


def _assert_round_trip(grid_a, grid_b, seed=0):
    vectors = _vectors(GRAPH.n_vertices, seed)
    eng_a = Engine(GRAPH, grid=grid_a)
    eng_b = Engine(GRAPH, grid=grid_b)
    for name, vec in vectors.items():
        eng_a.scatter_global(name, vec)

    # The save alone must already hold the global vectors.
    ckpt = CheckpointManager(checkpoint_bw=None).save(eng_a, 1, "prop", dict)
    for name, vec in vectors.items():
        assert ckpt.state[name].dtype == vec.dtype
        assert np.array_equal(ckpt.state[name], vec)

    migrated, cost_s = migrate_checkpoint(ckpt, eng_b)
    assert cost_s > 0
    assert migrated.state is ckpt.state  # nothing is re-expressed
    eng_b.restore(migrated)
    _assert_windows_hold(eng_b, vectors)


ALL_GRIDS = [g for n in range(2, 17) for g in factor_pairs(n)]


@pytest.mark.parametrize(
    "grid", ALL_GRIDS, ids=lambda g: f"p{g.n_ranks}-{g.C}x{g.R}"
)
def test_every_grid_migrates_to_shrunk_square(grid):
    """Every 2-16-rank grid migrates onto the squarest survivor grid."""
    survivors = max(1, grid.n_ranks - 1)
    _assert_round_trip(grid, squarest_grid(survivors))


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_a=st.integers(min_value=2, max_value=16),
    n_b=st.integers(min_value=1, max_value=16),
    pick_a=st.integers(min_value=0, max_value=10**6),
    pick_b=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_grid_pairs_round_trip(n_a, n_b, pick_a, pick_b, seed):
    """Arbitrary grid pairs and payloads round-trip bit-identically."""
    grids_a = factor_pairs(n_a)
    grids_b = factor_pairs(n_b)
    _assert_round_trip(
        grids_a[pick_a % len(grids_a)],
        grids_b[pick_b % len(grids_b)],
        seed=seed,
    )
