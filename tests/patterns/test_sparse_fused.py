"""Rank-fused ``sparse_push`` / ``sparse_pull`` held to what each owner
is owed.

The per-rank oracle is written from the exchanges' docstrings, not
copied from the per-rank closures the fused passes replaced: every
rank's send rows at each stage (read at the collective), every rank's
row and column windows afterwards, the active row queues and
``n_updated`` (``tests/patterns/test_sparse.py`` holds the two
contracts).  The sum and ``touched`` tests check an explicit expected
value each.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import Graph
from repro.patterns.sparse import sparse_push

from .test_sparse import (
    SEAM_GRIDS,
    _random_graph,
    _seam_engine,
    hold_pull_to_what_each_owner_is_owed,
    hold_push_to_what_each_owner_is_owed,
)

#: 1 x p, p x 1, prime p and more ranks than vertices among them
GRIDS = SEAM_GRIDS + [Grid2D(R=1, C=5)]


@settings(max_examples=60, deadline=None)
@given(
    grid=st.sampled_from(GRIDS),
    op=st.sampled_from(["min", "max"]),
    overlap=st.booleans(),
    push=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fused_exchange_equals_per_rank_oracle(grid, op, overlap, push, seed):
    """What each owner is handed at both stages, and each rank's
    windows, queue and count after them, for a random graph of 2 to 48
    vertices."""
    engine, rng, x = _seam_engine(grid, overlap, seed)
    hold = hold_push_to_what_each_owner_is_owed if push else hold_pull_to_what_each_owner_is_owed
    hold(engine, rng, x, op)
    # the state the fused pass wrote is the per-rank arrays themselves
    stacked = engine.fleet.stacked("s")
    assert all(ctx.get("s").base is stacked for ctx in engine)


#: Magnitudes whose float sums depend on the order they are added in.
ORDER_SENSITIVE = np.array([1e16, 1.0, -1e16, 0.1, 3.0, -0.3, 7e15, 2.0**-30])


def test_sum_keeps_each_ranks_received_buffer_order():
    """Float ``sum`` is order-sensitive: every member of a column group
    adds the group's received buffer to its own ghost in received
    order, member by member, so each holds its own delta plus every
    member's, added left to right in member order."""
    graph = Graph.from_edges(np.arange(7), np.arange(1, 8), 8)
    engine = Engine(graph, grid=Grid2D(R=2, C=4))  # column groups of four
    engine.scatter_global("s", np.zeros(8))
    queues = []
    for ctx in engine:
        lid = ctx.col_slice.start  # the same ghost on every member
        ctx.get("s")[lid] = ORDER_SENSITIVE[ctx.block.id_r]
        queues.append(np.array([lid], dtype=np.int64))
    sparse_push(engine, "s", engine.fleet.stack(queues)[0], op="sum")
    order_matters = False
    for _, members in engine.col_groups():
        deltas = [ORDER_SENSITIVE[engine.ctx(m).block.id_r] for m in members]
        for m, own in zip(members, deltas):
            want, backwards = own, own
            for a, b in zip(deltas, deltas[::-1]):
                want, backwards = want + a, backwards + b
            ctx = engine.ctx(m)
            assert ctx.get("s")[ctx.col_slice.start] == want, m
            order_matters |= bool(backwards != want)
    assert order_matters  # these magnitudes do tell the orders apart


@settings(max_examples=60, deadline=None)
@given(
    grid=st.sampled_from(GRIDS),
    op=st.sampled_from(["min", "max", "sum"]),
    overlap=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_push_touched_covers_every_changed_cell(grid, op, overlap, seed):
    """``SparseResult.touched`` names every stacked cell whose bits
    changed — the local kernel's writes (the queues) included — so a
    caller can track freshness from it instead of scanning the state."""
    rng = np.random.default_rng(seed)
    engine = Engine(_random_graph(rng), grid=grid, overlap=overlap)
    n = engine.partition.n_vertices
    engine.scatter_global("s", rng.choice(ORDER_SENSITIVE, size=n) * rng.integers(1, 4, size=n))
    before = engine.fleet.stacked("s").copy()
    queues = []
    for ctx in engine:
        sl = ctx.col_slice
        k = int(rng.integers(0, sl.stop - sl.start + 1))
        lids = np.sort(rng.choice(np.arange(sl.start, sl.stop), size=k, replace=False))
        ctx.get("s")[lids] = rng.choice(ORDER_SENSITIVE, size=k)
        queues.append(lids.astype(np.int64))
    got = sparse_push(engine, "s", engine.fleet.stack(queues)[0], op=op)
    after = engine.fleet.stacked("s")
    changed = np.flatnonzero(before.view(np.int64) != after.view(np.int64))
    assert np.isin(changed, got.touched).all()
    assert got.touched.dtype == np.int64
    assert np.all((got.touched >= 0) & (got.touched < engine.fleet.size))
