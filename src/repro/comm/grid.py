"""2D process grid geometry (paper §2.2, Fig. 1).

The adjacency matrix is blocked into ``C`` block-rows x ``R``
block-columns, one block per rank.  Following the paper's variable
names (Table 1):

* ``R`` — ranks in each **row group** (= number of block-columns),
* ``C`` — ranks in each **column group** (= number of block-rows),
* ``ID_R`` — the rank's row-group id (its block-row index, in ``[0, C)``),
* ``ID_C`` — the rank's column-group id (its block-column index, in ``[0, R)``),
* ``Rank_R`` — the rank's position within its row group (= ``ID_C``),
* ``Rank_C`` — the rank's position within its column group (= ``ID_R``).

Ranks are numbered row-major: ``rank = ID_R * R + ID_C``.  A *row
group* therefore occupies consecutive global ranks — which places it on
as few physical nodes as possible — while a column group strides by
``R``.  Communication happens exclusively along these two groups, which
is what reduces message counts from O(p^2) to O(p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid2D",
    "check_count",
    "check_positive",
    "check_fraction",
    "square_grid",
    "factor_pairs",
    "squarest_grid",
]


@dataclass(frozen=True)
class Grid2D:
    """A fixed ``C x R`` blocking of the adjacency matrix.

    Parameters
    ----------
    R:
        Ranks per row group (number of block-columns).
    C:
        Ranks per column group (number of block-rows).
    """

    R: int
    C: int

    def __post_init__(self) -> None:
        if self.R < 1 or self.C < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.R}x{self.C}")

    @property
    def n_ranks(self) -> int:
        """Total ranks ``p = R * C``."""
        return self.R * self.C

    @property
    def is_square(self) -> bool:
        return self.R == self.C

    # ------------------------------------------------------------------
    # rank <-> coordinates
    # ------------------------------------------------------------------
    def rank_of(self, id_r: int, id_c: int) -> int:
        """Rank at block-row ``id_r``, block-column ``id_c``."""
        if not (0 <= id_r < self.C and 0 <= id_c < self.R):
            raise ValueError(f"block ({id_r}, {id_c}) outside {self.C}x{self.R} grid")
        return id_r * self.R + id_c

    def coords(self, rank: int) -> tuple[int, int]:
        """``(ID_R, ID_C)`` of a rank."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        return divmod(rank, self.R)

    def row_group_ranks(self, id_r: int) -> list[int]:
        """All ranks in row group ``id_r`` (in Rank_R order)."""
        return [self.rank_of(id_r, j) for j in range(self.R)]

    def col_group_ranks(self, id_c: int) -> list[int]:
        """All ranks in column group ``id_c`` (in Rank_C order)."""
        return [self.rank_of(i, id_c) for i in range(self.C)]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Grid2D(C={self.C} block-rows x R={self.R} block-cols, p={self.n_ranks})"


def _real(value) -> bool:
    """A real number, not a bool."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    return real and not isinstance(value, (bool, np.bool_))


def check_positive(value, what: str, zero: bool = False) -> None:
    """Refuse a bound that is not a finite positive real (a bool, zero
    unless ``zero``, a negative, NaN or infinity)."""
    if not (_real(value) and (0 <= value if zero else 0 < value) and value < np.inf):
        kind = "real >= 0" if zero else "positive real"
        raise ValueError(f"{what} must be a finite {kind}, not {value!r}")


def check_fraction(value, what: str) -> None:
    """Refuse a fraction that is not a real in ``[0, 1]`` (a bool, NaN
    or a value outside it)."""
    if not (_real(value) and 0 <= value <= 1):
        raise ValueError(f"{what} must lie in [0, 1], got {value!r}")


def check_count(value, what: str, minimum: int = 1) -> int:
    """Refuse a count that is not an integer >= ``minimum`` (a float, a
    bool or a smaller integer) rather than truncating or clamping it."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer >= {minimum}, not {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value}")
    return int(value)


def square_grid(n_ranks: int) -> Grid2D:
    """The square ``sqrt(p) x sqrt(p)`` grid for a perfect-square ``p``."""
    n_ranks = check_count(n_ranks, "n_ranks")
    side = int(round(n_ranks**0.5))
    if side * side != n_ranks:
        raise ValueError(f"{n_ranks} is not a perfect square; pass an explicit Grid2D")
    return Grid2D(R=side, C=side)


def factor_pairs(n_ranks: int) -> list[Grid2D]:
    """All ``C x R`` grids with ``R * C == n_ranks`` (paper Fig. 7 sweep)."""
    out = []
    for c in range(1, n_ranks + 1):
        if n_ranks % c == 0:
            out.append(Grid2D(R=n_ranks // c, C=c))
    return out


def squarest_grid(n_ranks: int) -> Grid2D:
    """The most square grid for *any* ``n_ranks`` (not just perfect
    squares): the factor pair minimizing ``|R - C|``, preferring the
    smaller ``R`` on ties (fewer ranks per row group — the paper's
    Fig. 7 bias toward cheap row reductions)."""
    return min(factor_pairs(n_ranks), key=lambda g: (abs(g.R - g.C), g.R))
