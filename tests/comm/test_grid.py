"""2D grid geometry tests."""

import re

import numpy as np
import pytest

from repro.comm import Grid2D, factor_pairs, square_grid


class TestGrid2D:
    def test_paper_figure1_example(self):
        # Fig. 1: 2 row groups, 4 column groups, 8 ranks.
        grid = Grid2D(R=4, C=2)
        assert grid.n_ranks == 8
        assert [grid.row_group_ranks(i) for i in range(2)] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert [grid.col_group_ranks(j) for j in range(4)] == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_rank_numbering_row_major(self):
        grid = Grid2D(R=3, C=2)
        assert grid.rank_of(0, 0) == 0
        assert grid.rank_of(0, 2) == 2
        assert grid.rank_of(1, 0) == 3
        assert grid.coords(5) == (1, 2)

    def test_row_groups_are_consecutive_ranks(self):
        grid = Grid2D(R=4, C=2)
        assert grid.row_group_ranks(0) == [0, 1, 2, 3]
        assert grid.row_group_ranks(1) == [4, 5, 6, 7]

    def test_col_groups_stride(self):
        grid = Grid2D(R=4, C=2)
        assert grid.col_group_ranks(1) == [1, 5]

    def test_every_rank_in_one_row_and_col_group(self):
        grid = Grid2D(R=3, C=5)
        seen_row, seen_col = set(), set()
        for id_r in range(grid.C):
            seen_row.update(grid.row_group_ranks(id_r))
        for id_c in range(grid.R):
            seen_col.update(grid.col_group_ranks(id_c))
        assert seen_row == seen_col == set(range(15))

    def test_bounds_checked(self):
        grid = Grid2D(R=2, C=2)
        with pytest.raises(ValueError):
            grid.rank_of(2, 0)
        with pytest.raises(ValueError):
            grid.coords(4)
        with pytest.raises(ValueError):
            Grid2D(R=0, C=1)

    def test_is_square(self):
        assert Grid2D(R=4, C=4).is_square
        assert not Grid2D(R=8, C=2).is_square


class TestHelpers:
    def test_square_grid(self):
        g = square_grid(16)
        assert g.R == g.C == 4

    def test_square_grid_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            square_grid(12)

    @pytest.mark.parametrize(
        "count", [True, 4.0, 16.0, np.float64(4), 0, -4], ids=repr
    )
    def test_square_grid_refuses_a_count_it_would_coerce(self, count):
        with pytest.raises(ValueError, match=r"n_ranks must be an integer >= 1.*" + re.escape(repr(count))):
            square_grid(count)

    def test_square_grid_takes_a_numpy_integer(self):
        g = square_grid(np.int64(16))
        assert (g.R, g.C) == (4, 4) and type(g.R) is int

    def test_factor_pairs_covers_all(self):
        pairs = factor_pairs(256)
        assert len(pairs) == 9  # 1,2,4,...,256
        assert all(g.n_ranks == 256 for g in pairs)
        assert any(g.is_square for g in pairs)

    def test_factor_pairs_prime(self):
        pairs = factor_pairs(7)
        assert len(pairs) == 2
