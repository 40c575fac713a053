"""Property tests for the fused scatter-reduce kernel.

The kernel's contract is exact agreement with the pre-kernel
``np.unique`` + ``old.copy()`` + ``np.<op>.at`` + compare idiom
(:func:`repro.reference.serial.scatter_reduce_reference`): bit-identical state
after the update and the identical changed-LID set, across ops, dtypes,
regimes (sparse queues vs edge-sized dense index arrays), duplicates,
and non-contiguous views.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import ScatterError, scatter_reduce
from repro.kernels import scatter as scatter_mod
from repro.kernels.scatter import segment_reduce
from repro.reference.serial import scatter_reduce_reference

OPS = ["min", "max", "sum"]

PAIR = np.dtype([("gid", np.int64), ("val", np.float64)])


def _check_against_reference(state, lids, vals, op):
    ref_state = state.copy()
    ref_changed = scatter_reduce_reference(ref_state, lids, vals, op)
    changed = scatter_reduce(state, lids, vals, op)
    np.testing.assert_array_equal(state, ref_state, strict=True)
    np.testing.assert_array_equal(changed, ref_changed, strict=True)


@st.composite
def scatter_case(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    # duplicate-heavy by construction: k can far exceed n
    k = draw(st.integers(min_value=0, max_value=200))
    lids = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k)
    )
    finite = st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    )
    state = draw(st.lists(finite, min_size=n, max_size=n))
    vals = draw(st.lists(finite, min_size=k, max_size=k))
    return (
        np.array(state, dtype=np.float64),
        np.array(lids, dtype=np.int64),
        np.array(vals, dtype=np.float64),
    )


class TestAgainstReference:
    @pytest.mark.parametrize("op", OPS)
    @settings(max_examples=80, deadline=None)
    @given(case=scatter_case())
    def test_float64(self, case, op):
        state, lids, vals = case
        _check_against_reference(state, lids, vals, op)

    @pytest.mark.parametrize("op", OPS)
    @settings(max_examples=60, deadline=None)
    @given(case=scatter_case())
    def test_int64(self, case, op):
        state, lids, vals = case
        state = state.astype(np.int64)
        vals = vals.astype(np.int64)
        _check_against_reference(state, lids, vals, op)

    @pytest.mark.parametrize("op", OPS)
    def test_dense_regime_edge_sized_lids(self, op):
        # lids much larger than state forces the full-diff strategy
        rng = np.random.default_rng(0)
        state = rng.normal(size=37)
        lids = rng.integers(0, 37, size=5000)
        vals = rng.normal(size=5000)
        _check_against_reference(state, lids, vals, op)

    @pytest.mark.parametrize("op", OPS)
    def test_sparse_regime_tiny_queue(self, op):
        rng = np.random.default_rng(1)
        state = rng.normal(size=100_000)
        lids = rng.integers(0, 100_000, size=8)
        vals = rng.normal(size=8)
        _check_against_reference(state, lids, vals, op)

    @pytest.mark.parametrize("op", ["min", "max"])
    def test_nan_vals_propagate_like_reference(self, op):
        state = np.array([1.0, 2.0, 3.0])
        lids = np.array([0, 0, 2], dtype=np.int64)
        vals = np.array([np.nan, 0.5, 9.0])
        with np.errstate(invalid="ignore"):
            _check_against_reference(state, lids, vals, op)


class TestEdges:
    @pytest.mark.parametrize("op", OPS)
    def test_empty_lids(self, op):
        state = np.arange(4, dtype=np.float64)
        changed = scatter_reduce(state, np.empty(0, dtype=np.int64), np.empty(0), op)
        assert changed.size == 0 and changed.dtype == np.int64
        np.testing.assert_array_equal(state, np.arange(4, dtype=np.float64))

    def test_scalar_vals_broadcast(self):
        state = np.zeros(5)
        changed = scatter_reduce(state, np.array([1, 3, 3], dtype=np.int64), 1.0, "max")
        np.testing.assert_array_equal(changed, [1, 3])
        np.testing.assert_array_equal(state, [0, 1, 0, 1, 0])

    def test_non_contiguous_views(self):
        rng = np.random.default_rng(2)
        backing = rng.normal(size=400)
        lids_backing = rng.integers(0, 200, size=300)
        vals_backing = rng.normal(size=300)
        state, lids, vals = backing[::2], lids_backing[::3], vals_backing[::3]
        ref_state = state.copy()
        ref = scatter_reduce_reference(ref_state, lids, vals, "min")
        changed = scatter_reduce(state, lids, vals, "min")
        np.testing.assert_array_equal(state, ref_state)
        np.testing.assert_array_equal(changed, ref)

    def test_sum_zero_delta_not_reported_changed(self):
        state = np.array([5.0, 6.0])
        changed = scatter_reduce(state, np.array([0, 1], dtype=np.int64),
                                 np.array([0.0, 1.0]), "sum")
        np.testing.assert_array_equal(changed, [1])

    def test_sum_cancelling_deltas_not_reported_changed(self):
        state = np.array([5.0])
        changed = scatter_reduce(state, np.array([0, 0], dtype=np.int64),
                                 np.array([2.5, -2.5]), "sum")
        assert changed.size == 0
        assert state[0] == 5.0

    def test_bad_op_raises(self):
        with pytest.raises(ScatterError):
            scatter_reduce(np.zeros(2), np.array([0], dtype=np.int64), 1.0, "prod")

    def test_float_lids_raise(self):
        with pytest.raises(ScatterError):
            scatter_reduce(np.zeros(2), np.array([0.0]), 1.0, "min")


class TestStructured:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        raw=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=19),
                st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False),
                st.integers(min_value=-50, max_value=50),
            ),
            max_size=120,
        ),
        op=st.sampled_from(["min", "max"]),
    )
    def test_pair_dtype_lexicographic(self, n, raw, op):
        raw = [(l % n, v, g) for l, v, g in raw]
        lids = np.array([r[0] for r in raw], dtype=np.int64)
        vals = np.empty(len(raw), dtype=PAIR)
        vals["val"] = [r[1] for r in raw]
        vals["gid"] = [r[2] for r in raw]
        rng = np.random.default_rng(n)
        state = np.empty(n, dtype=PAIR)
        state["val"] = rng.normal(size=n)
        state["gid"] = rng.integers(-50, 50, size=n)
        # serial oracle: lexicographic (field-order) min/max per lid
        before = state.copy()
        expect = state.copy()
        pick = min if op == "min" else max
        for lid, v, g in zip(lids, vals["val"], vals["gid"]):
            expect[lid] = pick(tuple(expect[lid]), (g, v))
        changed = scatter_reduce(state, lids, vals, op)
        np.testing.assert_array_equal(state, expect)
        np.testing.assert_array_equal(changed, np.flatnonzero(expect != before))

    def test_structured_sum_rejected(self):
        state = np.zeros(2, dtype=PAIR)
        vals = np.zeros(1, dtype=PAIR)
        with pytest.raises(ScatterError):
            scatter_reduce(state, np.array([0], dtype=np.int64), vals, "sum")


class TestSegmentReduce:
    @pytest.mark.parametrize("op,expect", [
        ("min", [1, 0, 7]),
        ("max", [5, 4, 7]),
        ("sum", [9, 4, 7]),
    ])
    def test_ops(self, op, expect):
        values = np.array([5, 3, 1, 0, 4, 7], dtype=np.int64)
        starts = np.array([0, 3, 5], dtype=np.int64)
        np.testing.assert_array_equal(segment_reduce(values, starts, op), expect)

    def test_bad_op(self):
        with pytest.raises(ScatterError):
            segment_reduce(np.arange(3), np.array([0]), "mean")


# ---------------------------------------------------------------------
# Lane-aware 2-D scatter (batched multi-source traversal)
# ---------------------------------------------------------------------

from repro.kernels import scatter_reduce_lanes  # noqa: E402


@st.composite
def lane_scatter_case(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=120))
    lids = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m)
    )
    lanes = draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=m, max_size=m)
    )
    finite = st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    )
    state = draw(st.lists(finite, min_size=n * k, max_size=n * k))
    vals = draw(st.lists(finite, min_size=m, max_size=m))
    return (
        np.array(state, dtype=np.float64).reshape(n, k),
        np.array(lids, dtype=np.int64),
        np.array(lanes, dtype=np.int64),
        np.array(vals, dtype=np.float64),
    )


class TestScatterReduceLanes:
    """Per-lane bit-identity to k independent 1-D scatter_reduce calls."""

    @pytest.mark.parametrize("op", OPS)
    @settings(max_examples=60, deadline=None)
    @given(case=lane_scatter_case())
    def test_lane_mode_matches_per_lane_1d(self, case, op):
        state, lids, lanes, vals = case
        k = state.shape[1]
        fused = state.copy()
        ch_lids, ch_lanes = scatter_reduce_lanes(
            fused, lids, vals, op, lanes=lanes
        )
        for lane in range(k):
            col = state[:, lane].copy()
            sel = lanes == lane
            changed = scatter_reduce(col, lids[sel], vals[sel], op)
            np.testing.assert_array_equal(fused[:, lane], col, strict=True)
            np.testing.assert_array_equal(ch_lids[ch_lanes == lane], changed)

    @pytest.mark.parametrize("op", OPS)
    @settings(max_examples=60, deadline=None)
    @given(case=lane_scatter_case())
    def test_row_vector_mode_matches_per_lane_1d(self, case, op):
        """A full row vector per update (what the removed ``lanes=None``
        mode took) is the lane mode with every lid repeated ``k``
        times."""
        state, lids, _, vals1 = case
        k = state.shape[1]
        rng = np.random.default_rng(lids.size)
        vals = np.outer(
            vals1 if vals1.size else np.empty(0), np.ones(k)
        ) + rng.integers(0, 3, size=(lids.size, k))
        fused = state.copy()
        ch_lids, ch_lanes = scatter_reduce_lanes(
            fused,
            np.repeat(lids, k),
            vals.reshape(-1),
            op,
            lanes=np.tile(np.arange(k), lids.size),
        )
        for lane in range(k):
            col = state[:, lane].copy()
            changed = scatter_reduce(col, lids, vals[:, lane].copy(), op)
            np.testing.assert_array_equal(fused[:, lane], col, strict=True)
            np.testing.assert_array_equal(ch_lids[ch_lanes == lane], changed)

    def test_changed_pairs_sorted_by_lid_then_lane(self):
        state = np.full((6, 3), 10.0)
        lids = np.array([5, 0, 5, 2], dtype=np.int64)
        lanes = np.array([2, 1, 0, 1], dtype=np.int64)
        ch_lids, ch_lanes = scatter_reduce_lanes(
            state, lids, np.zeros(4), "min", lanes=lanes
        )
        comp = ch_lids * 3 + ch_lanes
        assert np.array_equal(comp, np.sort(comp))
        assert ch_lids.tolist() == [0, 2, 5, 5]
        assert ch_lanes.tolist() == [1, 1, 0, 2]

    def test_empty_lids(self):
        state = np.zeros((4, 2))
        ch_lids, ch_lanes = scatter_reduce_lanes(
            state, np.empty(0, dtype=np.int64), np.empty(0), "min",
            lanes=np.empty(0, dtype=np.int64),
        )
        assert ch_lids.size == 0 and ch_lanes.size == 0

    def test_1d_state_rejected(self):
        with pytest.raises(ScatterError, match="2-D"):
            scatter_reduce_lanes(
                np.zeros(4), np.array([0]), np.array([1.0]),
                lanes=np.array([0]),
            )

    def test_non_contiguous_state_rejected(self):
        state = np.zeros((4, 3), order="F")
        with pytest.raises(ScatterError, match="contiguous"):
            scatter_reduce_lanes(
                state, np.array([0]), np.array([1.0]), lanes=np.array([0])
            )

    def test_lane_shape_mismatch_rejected(self):
        state = np.zeros((4, 2))
        with pytest.raises(ScatterError, match="lanes shape"):
            scatter_reduce_lanes(
                state, np.array([0, 1]), np.array([1.0, 2.0]),
                lanes=np.array([0]),
            )

    def test_lanes_are_required(self):
        with pytest.raises(TypeError, match="lanes"):
            scatter_reduce_lanes(np.zeros((4, 2)), np.array([0, 1]), np.zeros((2, 2)))

    @pytest.mark.parametrize("k", [3, 4], ids=["multiply", "shift"])
    def test_lids_of_any_integer_width_build_the_same_int64_composite(
        self, k, monkeypatch
    ):
        """``int64`` lids are used as they are (``astype(copy=False)``);
        narrower ones must still widen before the shift / multiply."""
        lids64 = np.array([3, 0, 3, 1], dtype=np.int64)
        lanes = np.array([0, 2, 0, 1], dtype=np.int64)
        vals = np.array([1.0, 2.0, 0.5, 4.0])
        seen = []
        real = scatter_mod.scatter_reduce

        def spy(state, comp, *args):
            seen.append(comp)
            return real(state, comp, *args)

        monkeypatch.setattr(scatter_mod, "scatter_reduce", spy)
        results = []
        for lids in (lids64, lids64.astype(np.int32)):
            state = np.full((5, k), 9.0)
            results.append(
                (state, *scatter_reduce_lanes(state, lids, vals, "min", lanes=lanes))
            )
        assert all(comp.dtype == np.int64 for comp in seen)
        for a, b in zip(*results):
            assert np.array_equal(a, b)
        assert results[0][1].tolist() == [0, 1, 3]
