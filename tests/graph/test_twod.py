"""2D block partition tests (paper §3.2)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import Graph, partition_2d, rmat

from ..conftest import GRIDS, permute, random_graph


def reconstruct(part) -> sp.csr_matrix:
    """Rebuild the full relabeled adjacency matrix from the blocks."""
    n = part.n_vertices
    rows, cols = [], []
    for blk in part.blocks:
        lm = blk.localmap
        degs = np.diff(blk.indptr)
        r_local = np.repeat(np.arange(lm.n_row), degs)
        rows.append(r_local + lm.row_start)
        cols.append(lm.col_gid(blk.indices - blk.lid_base))
    rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    return sp.coo_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(n, n)
    ).tocsr()


class TestPartition:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.C}x{g.R}")
    def test_blocks_reconstruct_graph(self, rmat_graph, grid):
        part = partition_2d(rmat_graph, grid)
        relabeled = permute(rmat_graph, part.perm).to_scipy()
        relabeled.data[:] = 1.0
        rebuilt = reconstruct(part)
        assert (rebuilt != relabeled).nnz == 0

    def test_edge_counts_partition(self, rmat_graph):
        part = partition_2d(rmat_graph, Grid2D(R=4, C=2))
        assert sum(b.n_local_edges for b in part.blocks) == rmat_graph.n_edges

    def test_local_degrees_sum_to_global(self, rmat_graph):
        """Paper §3.2: true degree = sum of local degrees across the
        row group."""
        grid = Grid2D(R=3, C=2)
        part = partition_2d(rmat_graph, grid)
        global_degs = permute(rmat_graph, part.perm).degrees()
        for id_r in range(grid.C):
            rs, re = part.row_range(id_r)
            acc = np.zeros(re - rs, dtype=np.int64)
            for id_c in range(grid.R):
                blk = part.blocks[grid.rank_of(id_r, id_c)]
                acc += blk.local_row_degrees()
            assert np.array_equal(acc, global_degs[rs:re])

    def test_block_ranks_ordered(self, rmat_graph):
        part = partition_2d(rmat_graph, Grid2D(R=2, C=3))
        assert [b.rank for b in part.blocks] == list(range(6))
        for b in part.blocks:
            assert b.rank == b.id_r * 2 + b.id_c

    def test_weighted_blocks_carry_weights(self):
        g = rmat(7, seed=2).with_random_weights(seed=1)
        part = partition_2d(g, Grid2D(R=2, C=2))
        assert part.weighted
        total = sum(b.weights.size for b in part.blocks)
        assert total == g.n_edges

    def test_unknown_distribution_rejected(self, rmat_graph):
        with pytest.raises(ValueError):
            partition_2d(rmat_graph, Grid2D(R=2, C=2), distribution="zigzag")

    def test_distributions_all_valid(self, rmat_graph):
        for dist in ("striped", "random", "block"):
            part = partition_2d(rmat_graph, Grid2D(R=2, C=2), distribution=dist)
            part.validate()


class TestVectors:
    def test_scatter_gather_roundtrip(self, rmat_graph, any_grid):
        engine = Engine(rmat_graph, grid=any_grid)
        vec = np.arange(rmat_graph.n_vertices, dtype=np.float64) * 0.5
        engine.scatter_global("x", vec)
        out = engine.partition.gather_row_state(engine.states("x"))
        assert np.array_equal(out, vec)

    def test_scatter_fills_both_windows(self, rmat_graph):
        engine = Engine(rmat_graph, grid=Grid2D(R=2, C=2))
        part = engine.partition
        vec = np.random.default_rng(0).random(rmat_graph.n_vertices)
        relabeled = part.to_relabeled_order(vec)
        engine.scatter_global("x", vec)
        for ctx in engine:
            local = ctx.arrays["x"]
            lm = ctx.localmap
            assert np.array_equal(
                local[lm.row_slice], relabeled[lm.row_start : lm.row_stop]
            )
            assert np.array_equal(
                local[lm.col_slice], relabeled[lm.col_start : lm.col_stop]
            )

    def test_order_conversions_inverse(self, rmat_graph):
        part = partition_2d(rmat_graph, Grid2D(R=2, C=2))
        vec = np.random.default_rng(1).random(rmat_graph.n_vertices)
        assert np.allclose(
            part.to_original_order(part.to_relabeled_order(vec)), vec
        )

    def test_original_gid_inverts_perm(self, rmat_graph):
        part = partition_2d(rmat_graph, Grid2D(R=2, C=2))
        v = np.arange(rmat_graph.n_vertices)
        assert np.array_equal(part.original_gid(part.perm[v]), v)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    r=st.integers(1, 5),
    c=st.integers(1, 5),
    dist=st.sampled_from(["striped", "random", "block"]),
)
def test_property_partition_reconstructs(seed, r, c, dist):
    """Any graph x any grid x any distribution partitions losslessly."""
    g = random_graph(seed, n_max=80)
    grid = Grid2D(R=r, C=c)
    part = partition_2d(g, grid, distribution=dist, seed=seed)
    relabeled = permute(g, part.perm).to_scipy()
    relabeled.data[:] = 1.0
    assert (reconstruct(part) != relabeled).nnz == 0
