"""The sort-based graph build and 2D blocking against the scipy oracles.

:meth:`Graph.from_edges` and :func:`partition_2d` must equal the scipy
COO->CSR bodies in ``build_reference.py`` array for array — bytes and
dtypes, except that index arrays are compared by value and must be in
``index_dtype`` — on hostile inputs: duplicate edges, self-loops,
+-0.0 and NaN weights, empty graphs, isolated vertices, fewer vertices
than ranks, and 1xp / px1 / prime-p grids.  Also: the int64 key guards
raise.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.grid import Grid2D
from repro.graph import Graph, index_dtype, partition_2d
from repro.graph.partition import twod

from .build_reference import from_edges_reference, partition_2d_reference
from .test_partition_golden import PARTITION_ARRAYS

#: Few distinct values, so duplicate edges collide on equal, signed-zero
#: and NaN weights.
WEIGHTS = st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0, np.nan, np.inf])


def assert_same(a, b) -> None:
    """Equal dtype, shape and bytes (tells -0.0 from 0.0, NaN payloads)."""
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_ids(got, want, dtype) -> None:
    """Equal values and shape, ``got`` held in ``dtype``."""
    assert got.dtype == dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def assert_graphs_same(g, h) -> None:
    for name in ("indptr", "weights"):
        assert_same(getattr(g, name), getattr(h, name))
    assert_same_ids(g.indices, h.indices, index_dtype(g.n_vertices, 0))


@st.composite
def edge_lists(draw, n_max=30):
    n = draw(st.integers(0, n_max))
    m = draw(st.integers(0, 4 * n_max)) if n else 0
    ends = st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m)
    src, dst = draw(ends), draw(ends)
    weights = draw(st.one_of(st.none(), st.lists(WEIGHTS, min_size=m, max_size=m)))
    return src, dst, n, weights


@settings(max_examples=150, deadline=None)
@given(
    edges=edge_lists(),
    symmetrize=st.booleans(),
    remove_self_loops=st.booleans(),
)
def test_from_edges_equals_scipy_build(edges, symmetrize, remove_self_loops):
    src, dst, n, weights = edges
    kwargs = dict(
        weights=weights, symmetrize=symmetrize, remove_self_loops=remove_self_loops
    )
    assert_graphs_same(
        Graph.from_edges(src, dst, n, **kwargs),
        from_edges_reference(src, dst, n, **kwargs),
    )


#: (R, C): square, wide, tall, 1xp, px1, prime p, and more ranks than
#: the drawn graphs have vertices.
GRID_SHAPES = st.sampled_from(
    [(1, 1), (2, 2), (3, 5), (5, 3), (1, 7), (7, 1), (1, 13), (13, 1), (4, 8), (6, 6)]
)


@settings(max_examples=120, deadline=None)
@given(
    edges=edge_lists(n_max=25),
    shape=GRID_SHAPES,
    dist=st.sampled_from(["striped", "random", "block"]),
    seed=st.integers(0, 3),
)
def test_partition_2d_equals_scipy_blocking(edges, shape, dist, seed):
    graph = from_edges_reference(*edges[:3], weights=edges[3])
    grid = Grid2D(R=shape[0], C=shape[1])
    part = partition_2d(graph, grid, distribution=dist, seed=seed)
    ref = partition_2d_reference(graph, grid, distribution=dist, seed=seed)
    assert part.n_edges == ref.n_edges and part.weighted == ref.weighted
    assert_same(part.lid_offsets, ref.lid_offsets)
    ids = index_dtype(int(part.lid_offsets[-1]), part.n_edges)
    for name in PARTITION_ARRAYS:
        if name == "indices":
            assert_same_ids(part.indices, ref.indices, ids)
        else:
            assert_same(getattr(part, name), getattr(ref, name))
    for blk, want in zip(part.blocks, ref.blocks, strict=True):
        assert (blk.rank, blk.id_r, blk.id_c, blk.localmap, blk.lid_base) == (
            want.rank,
            want.id_r,
            want.id_c,
            want.localmap,
            want.lid_base,
        )
        for name in ("indptr", "weights"):
            assert_same(getattr(blk, name), getattr(want, name))
        assert_same_ids(blk.indices, want.indices, ids)


def test_duplicates_keep_the_max_weight_not_the_sum():
    g = Graph.from_edges([0, 0], [1, 1], 2, weights=[0.2, 0.9], symmetrize=False)
    assert g.weights.tolist() == [0.9]


def test_no_dedup_knob():
    with pytest.raises(TypeError):
        Graph.from_edges([0], [1], 2, dedup=False)


class TestKeyGuards:
    def test_from_edges_rejects_n_squared_past_int64(self):
        with pytest.raises(ValueError, match="int64 edge key"):
            Graph.from_edges([], [], 3_037_000_500)  # n^2 just past 2^63

    def test_partition_rejects_blocks_past_int64(self):
        # Only the vertex count matters: the guard runs before anything
        # vertex- or edge-sized is built.
        huge = types.SimpleNamespace(n_vertices=2**32)
        with pytest.raises(ValueError, match="int64 edge key"):
            partition_2d(huge, Grid2D(R=2, C=2))

    def test_partition_rejects_a_non_permutation(self, monkeypatch):
        monkeypatch.setitem(
            twod._DISTRIBUTIONS, "block", lambda n, ngroups: np.zeros(n, dtype=np.int64)
        )
        graph = Graph.from_edges([0, 1], [1, 2], 3)
        with pytest.raises(ValueError, match="not a permutation"):
            partition_2d(graph, Grid2D(R=1, C=1), distribution="block")
