"""CSR frontier expansion tests."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.grid import Grid2D
from repro.graph import partition_2d, rmat
from repro.reference.graphs import path_graph
from repro.queueing import Expansion, expand_block

from ..conftest import random_graph


def _whole_graph_block(g):
    """The one block of a 1x1 grid: the graph's own CSR, rows and
    targets both at offset 0, so its LIDs are the graph's vertex ids."""
    blk = partition_2d(g, Grid2D(R=1, C=1)).blocks[0]
    assert blk.localmap.row_offset == blk.lid_base == 0
    return blk


class TestExpandCSR:
    """A whole graph's CSR, expanded through its 1x1 block."""

    def test_matches_manual_expansion(self):
        g = rmat(6, seed=3)
        rows = np.array([0, 5, 17], dtype=np.int64)
        blk = _whole_graph_block(g)
        ex = expand_block(blk, rows)
        src, dst, eidx = ex.src, ex.dst, ex.edge_index
        manual_src, manual_dst = [], []
        for r in rows:
            for u in g.neighbors(r):
                manual_src.append(r)
                manual_dst.append(u)
        assert np.array_equal(src, manual_src)
        assert np.array_equal(dst, manual_dst)
        assert blk.indices.dtype == np.int32 and dst.dtype == np.int64
        assert np.array_equal(blk.indices[eidx], dst)
        assert np.array_equal(rows[ex.entry], src)
        assert ex.weights is None

    def test_empty_queue(self):
        g = path_graph(5)
        ex = expand_block(_whole_graph_block(g), np.empty(0, dtype=np.int64))
        assert ex.entry.size == ex.src.size == ex.dst.size == ex.edge_index.size == 0

    def test_isolated_vertices(self):
        from repro.graph import Graph

        g = Graph.from_edges([0], [1], 4)  # vertices 2, 3 isolated
        ex = expand_block(_whole_graph_block(g), np.array([2, 3]))
        assert ex.src.size == ex.dst.size == 0

    def test_duplicate_queue_entries_expand_twice(self):
        g = path_graph(3)
        ex = expand_block(_whole_graph_block(g), np.array([1, 1]))
        assert ex.src.size == 4  # degree-2 vertex expanded twice
        assert ex.entry.tolist() == [0, 0, 1, 1]

    def test_result_is_one_expansion_with_dst_second(self):
        """The benchmark's span wrapper counts expanded edges as
        ``result[1].size`` from outside the program."""
        g = path_graph(4)
        ex = expand_block(_whole_graph_block(g), np.array([1, 2]))
        assert isinstance(ex, Expansion) and ex[1] is ex.dst
        assert Expansion._fields[:3] == ("entry", "dst", "edge_index")


class TestExpandBlock:
    def test_lid_space_and_weights(self):
        g = rmat(6, seed=1).with_random_weights(seed=2)
        part = partition_2d(g, Grid2D(R=2, C=2))
        blk = part.blocks[1]
        assert blk.lid_base > 0  # the block's indices are stacked LIDs
        lids = blk.row_lids()[:5]
        ex = expand_block(blk, lids)
        src, dst, w = ex.src, ex.dst, ex.weights
        lm = blk.localmap
        assert np.all((src >= lm.row_offset) & (src < lm.row_offset + lm.n_row))
        if dst.size:
            assert np.all((dst >= lm.col_offset) & (dst < lm.col_offset + lm.n_col))
            assert w.shape == dst.shape
            assert np.array_equal(w, blk.weights[ex.edge_index])

    def test_unweighted_block(self):
        g = rmat(5, seed=1)
        part = partition_2d(g, Grid2D(R=2, C=1))
        blk = part.blocks[0]
        assert expand_block(blk, blk.row_lids()).weights is None


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_expansion_counts(seed):
    """Expanded edge count equals the summed degrees of the queue."""
    g = random_graph(seed, n_max=60)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, g.n_vertices))
    rows = rng.choice(g.n_vertices, size=k, replace=False).astype(np.int64)
    ex = expand_block(_whole_graph_block(g), rows)
    src, dst = ex.src, ex.dst
    assert src.size == int(g.degrees()[rows].sum())
    # every (src, dst) pair is a real edge
    for s, d in zip(src[:50], dst[:50]):
        assert d in g.neighbors(s)


@st.composite
def _block_and_queue(draw):
    """A random CSR block (zero-degree rows included) behind a row
    offset, its targets stacked behind a ``lid_base`` in a 32- or 64-bit
    index array, and a queue over its rows with repeats — or no entry.
    Returns the block's targets as its own LIDs too."""
    n_row = draw(st.integers(1, 12))
    n_col = draw(st.integers(1, 12))
    degrees = draw(st.lists(st.integers(0, 5), min_size=n_row, max_size=n_row))
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    n_edges = int(indptr[-1])
    local = draw(st.lists(st.integers(0, n_col - 1), min_size=n_edges, max_size=n_edges))
    lid_base = draw(st.sampled_from([0, 1, 37, 2**31 - 1 - n_col]))
    indices = np.array(local, dtype=np.int64) + lid_base
    if draw(st.booleans()):
        indices = indices.astype(np.int32)
    weights = (
        np.arange(n_edges, dtype=np.float64) * 0.5 + 1.0
        if draw(st.booleans())
        else None
    )
    row_offset = draw(st.integers(0, 7))
    block = SimpleNamespace(
        indptr=indptr,
        indices=indices,
        weights=weights,
        localmap=SimpleNamespace(row_offset=row_offset),
        lid_base=lid_base,
    )
    queue = np.array(
        draw(st.lists(st.integers(0, n_row - 1), max_size=2 * n_row)), dtype=np.int64
    )
    return block, local, queue + row_offset, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=_block_and_queue())
def test_property_expansion_equals_a_per_row_loop(case):
    """``entry``, ``dst``, ``edge_index``, ``src`` and ``weights`` are
    what a Python loop over the queue produces — with duplicate rows,
    zero-degree rows, an empty queue, and whether the caller hands the
    queue's degrees in or not.  ``dst`` is the block's own LID, ``int64``,
    whatever the index array's width and ``lid_base``."""
    block, local, row_lids, pass_degrees = case
    offset = block.localmap.row_offset
    want = {"entry": [], "dst": [], "edge_index": [], "src": []}
    for position, lid in enumerate(row_lids.tolist()):
        for e in range(block.indptr[lid - offset], block.indptr[lid - offset + 1]):
            want["entry"].append(position)
            want["dst"].append(local[e])
            want["edge_index"].append(e)
            want["src"].append(lid)
    degrees = np.diff(block.indptr)[row_lids - offset] if pass_degrees else None
    ex = expand_block(block, row_lids, degrees)
    for field, values in want.items():
        got = getattr(ex, field)
        assert got.dtype == np.int64 and got.tolist() == values, field
    assert ex[1] is ex.dst
    if block.weights is None:
        assert ex.weights is None
    else:
        assert np.array_equal(ex.weights, block.weights[want["edge_index"]])


def test_wrong_length_degrees_raise():
    blk = _whole_graph_block(path_graph(5))
    with pytest.raises(ValueError, match="degrees"):
        expand_block(blk, np.array([1, 2, 3]), np.array([2, 2]))
    with pytest.raises(ValueError, match="degrees"):
        expand_block(blk, blk.row_lids(), np.array([1, 2, 2, 2, 1, 0]))
