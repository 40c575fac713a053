"""Local ID mapping tests (paper Tables 1-2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import LocalMap

from ..conftest import row_gid


class TestTypes:
    def test_type0_disjoint(self):
        lm = LocalMap(row_start=0, row_stop=10, col_start=20, col_stop=30)
        assert lm.type == 0
        assert lm.row_offset == 0
        assert lm.col_offset == 10  # packed right after rows
        assert lm.n_total == 20

    def test_type0_adjacent_ranges(self):
        # Touching but not overlapping ranges are still Type 0.
        lm = LocalMap(row_start=0, row_stop=10, col_start=10, col_stop=20)
        assert lm.type == 0

    def test_type1_row_leads(self):
        lm = LocalMap(row_start=0, row_stop=10, col_start=5, col_stop=15)
        assert lm.type == 1
        diff = 5
        assert lm.row_offset == 0
        assert lm.col_offset == diff
        assert lm.n_total == 15  # union [0, 15)

    def test_type2_col_leads(self):
        lm = LocalMap(row_start=5, row_stop=15, col_start=0, col_stop=10)
        assert lm.type == 2
        assert lm.col_offset == 0
        assert lm.row_offset == 5
        assert lm.n_total == 15

    def test_identical_ranges_type1(self):
        # Diagonal blocks of square grids: full overlap.
        lm = LocalMap(row_start=10, row_stop=20, col_start=10, col_stop=20)
        assert lm.type == 1
        assert lm.row_offset == lm.col_offset == 0
        assert lm.n_total == 10

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            LocalMap(row_start=5, row_stop=4, col_start=0, col_stop=1)


class TestConversions:
    def test_roundtrip_rows(self):
        lm = LocalMap(row_start=7, row_stop=19, col_start=3, col_stop=11)
        gids = np.arange(7, 19)
        assert np.array_equal(row_gid(lm, lm.row_lid(gids)), gids)

    def test_roundtrip_cols(self):
        lm = LocalMap(row_start=7, row_stop=19, col_start=3, col_stop=11)
        gids = np.arange(3, 11)
        assert np.array_equal(lm.col_gid(lm.col_lid(gids)), gids)

    def test_overlap_gids_share_lids(self):
        # The crucial property: a GID in both ranges maps to ONE LID.
        lm = LocalMap(row_start=5, row_stop=15, col_start=10, col_stop=20)
        overlap = np.arange(10, 15)
        assert np.array_equal(lm.row_lid(overlap), lm.col_lid(overlap))

    def test_ownership_masks(self):
        lm = LocalMap(row_start=5, row_stop=10, col_start=0, col_stop=7)
        gids = np.array([0, 5, 6, 9, 10])
        assert np.array_equal(
            lm.owns_row_gid(gids), [False, True, True, True, False]
        )

    def test_slices_cover_windows(self):
        lm = LocalMap(row_start=0, row_stop=4, col_start=2, col_stop=8)
        state = np.zeros(lm.n_total)
        state[lm.row_slice] = 1
        state[lm.col_slice] += 2
        # union covers everything; overlap got both writes
        assert np.all(state > 0)
        assert np.count_nonzero(state == 3) == 2  # gids 2, 3 overlap


@settings(max_examples=100, deadline=None)
@given(
    rs=st.integers(0, 50),
    rlen=st.integers(0, 30),
    cs=st.integers(0, 50),
    clen=st.integers(0, 30),
)
def test_property_mapping_consistency(rs, rlen, cs, clen):
    """For any ranges: LIDs are in [0, N_T), windows cover exactly the
    union, and overlapping GIDs share a single LID."""
    lm = LocalMap(row_start=rs, row_stop=rs + rlen, col_start=cs, col_stop=cs + clen)
    row_gids = np.arange(rs, rs + rlen)
    col_gids = np.arange(cs, cs + clen)
    row_lids = lm.row_lid(row_gids)
    col_lids = lm.col_lid(col_gids)
    all_lids = np.union1d(row_lids, col_lids)
    if all_lids.size:
        assert all_lids.min() >= 0
        assert all_lids.max() < lm.n_total
    # unique GID count == unique LID count (bijection on the union)
    assert np.union1d(row_gids, col_gids).size == all_lids.size
    # round trips
    assert np.array_equal(row_gid(lm, row_lids), row_gids)
    assert np.array_equal(lm.col_gid(col_lids), col_gids)
    # consecutive windows (Table 2: groups are compact)
    if rlen:
        assert np.array_equal(row_lids, np.arange(lm.row_offset, lm.row_offset + rlen))
    if clen:
        assert np.array_equal(col_lids, np.arange(lm.col_offset, lm.col_offset + clen))
