"""Global-to-local vertex ID mapping (paper §3.2, Tables 1-2).

Each 2D rank holds a contiguous global-ID range of *row* vertices
(the vertices it co-owns) and a contiguous range of *column* vertices
(its ghosts).  Both are remapped into a compact local ID space
``[0, N_T)`` by simple arithmetic — no hash tables — according to the
rank's ``Type``:

===== =============================== =========================================
Type  Condition                       Mapping
===== =============================== =========================================
0     ranges do not overlap           row LIDs ``[0, N_R)``,
                                      col LIDs ``[N_R, N_R + N_C)``
1     overlap, ``Offset_R <= Offset_C`` ``diff = Offset_C - Offset_R``;
                                      row LIDs ``[0, N_R)``,
                                      col LIDs ``[diff, diff + N_C)``
2     overlap, ``Offset_R > Offset_C``  ``diff = Offset_R - Offset_C``;
                                      row LIDs ``[diff, diff + N_R)``,
                                      col LIDs ``[0, N_C)``
===== =============================== =========================================

Because local IDs of a group are consecutive, a dense communication of
a state-array slice needs only the group's local offset (``C_offset_R``
or ``C_offset_C``) and length — regardless of row/column overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LocalMap"]


@dataclass(frozen=True)
class LocalMap:
    """Arithmetic GID<->LID mapping for one rank's row/column ranges.

    Parameters are global-ID ranges: rows ``[row_start, row_stop)`` and
    columns ``[col_start, col_stop)``.  The Table 1 quantities below
    are derived once at construction (the map is immutable and the hot
    loops read them hundreds of thousands of times per run).
    """

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int
    #: ``N_R``: vertices in the rank's row group.
    n_row: int = field(init=False, repr=False, compare=False)
    #: ``N_C``: vertices in the rank's column group.
    n_col: int = field(init=False, repr=False, compare=False)
    #: The mapping ``Type`` (0, 1 or 2; see module docstring).
    type: int = field(init=False, repr=False, compare=False)
    #: ``C_offset_R``: first local ID of the row vertices.
    row_offset: int = field(init=False, repr=False, compare=False)
    #: ``C_offset_C``: first local ID of the column vertices.
    col_offset: int = field(init=False, repr=False, compare=False)
    #: ``N_T``: unique row+column vertices (size of the LID space).
    n_total: int = field(init=False, repr=False, compare=False)
    #: LID slice of the row vertices in a state array.
    row_slice: slice = field(init=False, repr=False, compare=False)
    #: LID slice of the column vertices in a state array.
    col_slice: slice = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rs, re_, cs, ce = self.row_start, self.row_stop, self.col_start, self.col_stop
        if re_ < rs or ce < cs:
            raise ValueError("ranges must be non-decreasing")
        n_row, n_col = re_ - rs, ce - cs
        if re_ <= cs or ce <= rs:
            kind, row_offset, col_offset = 0, 0, n_row
            n_total = n_row + n_col
        else:
            # Overlapping intervals: the union is one interval.
            n_total = max(re_, ce) - min(rs, cs)
            if rs <= cs:
                kind, row_offset, col_offset = 1, 0, cs - rs
            else:
                kind, row_offset, col_offset = 2, rs - cs, 0
        for name, value in (
            ("n_row", n_row),
            ("n_col", n_col),
            ("type", kind),
            ("row_offset", row_offset),
            ("col_offset", col_offset),
            ("n_total", n_total),
            ("row_slice", slice(row_offset, row_offset + n_row)),
            ("col_slice", slice(col_offset, col_offset + n_col)),
        ):
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # conversions (vectorized; accept scalars or arrays)
    # ------------------------------------------------------------------
    def row_lid(self, gids):
        """Local IDs of row-vertex global IDs."""
        gids = np.asarray(gids)
        return gids - self.row_start + self.row_offset

    def col_lid(self, gids):
        """Local IDs of column-vertex global IDs."""
        gids = np.asarray(gids)
        return gids - self.col_start + self.col_offset

    def col_gid(self, lids):
        """Global IDs of column-vertex local IDs."""
        lids = np.asarray(lids)
        return lids - self.col_offset + self.col_start

    def owns_row_gid(self, gids):
        """Boolean mask: is each GID in this rank's row range?"""
        gids = np.asarray(gids)
        return (gids >= self.row_start) & (gids < self.row_stop)
