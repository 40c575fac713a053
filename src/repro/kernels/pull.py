"""CSR pull kernel: reduce every row's neighborhood in one pass.

A dense pull sweep — PageRank's gather, the min-plus label sweep, a
masked neighbor maximum — reduces, for every row ``i`` of a CSR,
``data[e] * x[indices[e]]`` over the row's entries ``e``.  Written
against an expanded edge list that is a gather, an edge-sized operand
and a ``scatter_reduce`` whose ``src`` happens to be sorted; written
against the CSR it is a segmented reduction over rows (Gunrock's
neighbor-reduce, the SpMV of the linear-algebra formulations), with no
edge list, no state copy and no change detection.

Bit-identity with the edge-list form (``docs/PERF.md``, "CSR pull
kernel"):

* ``sum`` runs through SciPy's CSR mat-vec, which accumulates each row
  sequentially in CSR order from ``0.0`` — the order ``np.add.at``
  applies on a CSR-sorted ``src``.  ``np.add.reduceat`` would *not* do:
  it sums pairwise inside a segment.
* ``min`` / ``max`` are order-free, so ``ufunc.reduceat`` over the
  non-empty rows is exact; empty rows get the op's identity.

A mask folds into ``x`` as the op's identity (``0.0`` for ``sum``,
``-inf`` for ``max``, ``inf`` for ``min``): adding ``1.0 * 0.0`` leaves
a non-negative partial sum unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graph.csr import index_dtype
from .scatter import ScatterError

__all__ = ["PullCSR", "csr_pull"]

#: op -> (ufunc, identity) of the order-free reductions
_REDUCEAT = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}


class PullCSR:
    """A CSR operand of :func:`csr_pull`.

    ``indptr`` / ``indices`` describe ``len(indptr) - 1`` rows over
    ``n_cols`` columns; ``weights=None`` means every entry is ``1.0``
    (a unit data array is materialized for SciPy).  Index arrays are
    held in :func:`~repro.graph.index_dtype` (SciPy would otherwise
    convert wider ones on every product); arrays that already have it
    are shared, not copied.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        n_cols: int,
        weights: Optional[np.ndarray] = None,
    ):
        idx = index_dtype(n_cols, indices.size)
        self.unit = weights is None
        data = np.ones(indices.size) if weights is None else weights
        self.matrix = sp.csr_matrix(
            (data, indices.astype(idx, copy=False), indptr.astype(idx, copy=False)),
            shape=(indptr.size - 1, n_cols),
            copy=False,
        )


def csr_pull(csr: PullCSR, x: np.ndarray, op: str = "sum") -> np.ndarray:
    """``y[i] = op over row i's entries e of data[e] * x[indices[e]]``.

    ``x`` is an ``(n_cols,)`` operand; the result is a new float64
    array with one entry per CSR row, empty rows holding the op's
    identity.  Equal, bit for bit, to ``scatter_reduce`` of the same
    operands over the CSR's expanded edge list into an
    identity-initialized state.
    """
    mat = csr.matrix
    if x.shape != (mat.shape[1],):
        raise ScatterError(
            f"operand has shape {x.shape}, the CSR has {mat.shape[1]} columns"
        )
    if op == "sum":
        return mat @ x
    try:
        ufunc, identity = _REDUCEAT[op]
    except KeyError:
        raise ScatterError(f"unsupported pull op {op!r}") from None
    out = np.full(mat.shape[0], identity)
    indptr = mat.indptr
    rows = np.flatnonzero(indptr[1:] != indptr[:-1])
    if rows.size:
        vals = x[mat.indices]
        if not csr.unit:
            vals *= mat.data
        out[rows] = ufunc.reduceat(vals, indptr[rows])
    return out
