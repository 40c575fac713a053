"""CSR pull kernel: bit-identity with the edge-list scatter it replaces,
and the pitfalls met while sizing it (``docs/PERF.md``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import PullCSR, ScatterError, csr_pull
from repro.graph import index_dtype
from repro.reference.serial import scatter_reduce_reference

OPS = {"sum": 0.0, "min": np.inf, "max": -np.inf}


def edge_list_pull(indptr, indices, weights, x, op):
    """The form the kernel replaces: expand the CSR, gather the operand,
    scatter-reduce into an identity-initialized state."""
    src = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    vals = x[indices] if weights is None else weights * x[indices]
    state = np.full(indptr.size - 1, OPS[op])
    scatter_reduce_reference(state, src, vals, op)
    return state


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def csr_case(draw):
    """A CSR with empty rows, possibly no entries at all, possibly one
    hub row, duplicate column ids, more rows than columns or fewer."""
    n_rows = draw(st.integers(min_value=0, max_value=24))
    n_cols = draw(st.integers(min_value=1, max_value=24))
    shape = draw(st.sampled_from(["ragged", "empty", "hub"]))
    if shape == "empty" or n_rows == 0:
        degrees = np.zeros(n_rows, dtype=np.int64)
    elif shape == "hub":
        degrees = np.zeros(n_rows, dtype=np.int64)
        degrees[draw(st.integers(0, n_rows - 1))] = draw(st.integers(1, 300))
    else:
        degrees = np.array(
            draw(st.lists(st.integers(0, 12), min_size=n_rows, max_size=n_rows)),
            dtype=np.int64,
        )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    indices = rng.integers(0, n_cols, size=int(indptr[-1]))
    # magnitudes spread over many binades, both signs: any change of
    # summation order or of rounding shows in the low bits
    def values(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)

    x = values(n_cols)
    weights = values(indices.size) if draw(st.booleans()) else None
    return indptr, indices, n_cols, weights, x


@pytest.mark.parametrize("op", sorted(OPS))
@settings(max_examples=150, deadline=None)
@given(case=csr_case())
def test_pull_equals_edge_list_scatter_bit_for_bit(case, op):
    indptr, indices, n_cols, weights, x = case
    got = csr_pull(PullCSR(indptr, indices, n_cols, weights), x, op)
    assert same_bits(got, edge_list_pull(indptr, indices, weights, x, op))


def test_sum_accumulates_each_row_left_to_right():
    """Pitfall (a): a pairwise (``np.add.reduceat``) sum of a long row
    differs from the sequential ``np.add.at`` order in the last bits."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(4000) * 10.0 ** rng.integers(-6, 6, size=4000)
    indices = rng.permutation(4000)
    indptr = np.array([0, 0, 4000, 4000])
    total = 0.0
    for j in indices:
        total += x[j]
    got = csr_pull(PullCSR(indptr, indices, 4000), x, "sum")
    assert got.tolist() == [0.0, total, 0.0]
    assert np.add.reduceat(x[indices], [0])[0] != total  # what not to use


def test_weighted_sum_rounds_the_product_before_adding():
    """Pitfall (b): ``acc += w * x`` contracted into one FMA rounds once;
    the edge-list form rounds the product, then the sum."""
    w = x1 = 1.0 + 2.0**-30
    # w * x1 is exactly 1 + 2^-29 + 2^-60; rounded, the 2^-60 is gone,
    # but added to the -1.0 already accumulated it would survive
    assert -1.0 + w * x1 == 2.0**-29
    got = csr_pull(
        PullCSR(np.array([0, 2]), np.array([0, 1]), 2, np.array([1.0, w])),
        np.array([-1.0, x1]),
        "sum",
    )
    assert got[0] == 2.0**-29


class TestIndexArrays:
    """Pitfall (c): SciPy converts index arrays it does not like on
    every product, so the operand holds them in the dtype it wants."""

    def test_int32_while_columns_and_entries_fit(self):
        assert index_dtype(10, 10) is np.int32
        assert index_dtype(2**31 - 1, 2**31 - 1) is np.int32
        assert index_dtype(2**31, 10) is np.int64
        assert index_dtype(10, 2**31) is np.int64
        # ``Graph.indices`` (index_dtype(n_vertices, 0)) at 2**31 vertices
        assert index_dtype(2**31 - 1, 0) is np.int32
        assert index_dtype(2**31, 0) is np.int64

    def test_wide_arrays_are_narrowed_once_and_fitting_ones_shared(self):
        indptr = np.array([0, 2, 3], dtype=np.int64)
        indices = np.array([1, 0, 1], dtype=np.int64)
        weights = np.array([0.5, 2.0, 4.0])
        first = PullCSR(indptr, indices, 2, weights)
        assert first.matrix.indices.dtype == first.matrix.indptr.dtype == np.int32
        assert np.shares_memory(first.matrix.data, weights) and not first.unit
        second = PullCSR(first.matrix.indptr, first.matrix.indices, 2)
        assert np.shares_memory(second.matrix.indices, first.matrix.indices)
        assert np.shares_memory(second.matrix.indptr, first.matrix.indptr)
        assert second.unit and second.matrix.data.tolist() == [1.0, 1.0, 1.0]


def test_empty_rows_hold_the_identity():
    csr = PullCSR(np.array([0, 0, 1, 1]), np.array([0]), 1)
    x = np.array([5.0])
    for op, identity in OPS.items():
        assert csr_pull(csr, x, op).tolist() == [identity, 5.0, identity]


def test_bad_op_and_operand_are_rejected():
    csr = PullCSR(np.array([0, 1]), np.array([0]), 3)
    with pytest.raises(ScatterError, match="unsupported pull op"):
        csr_pull(csr, np.zeros(3), "mean")
    with pytest.raises(ScatterError, match="3 columns"):
        csr_pull(csr, np.zeros(2), "min")
    with pytest.raises(ScatterError, match=r"\(3, 1\)"):  # one column only
        csr_pull(csr, np.zeros((3, 1)), "sum")
