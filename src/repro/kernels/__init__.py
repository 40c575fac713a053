"""Shared "device kernel" layer for the simulator's functional hot path.

The paper's CUDA code funnels every algorithm through a small set of
shared, tuned edge-parallel primitives — the ReduceQueue reduction
(Alg. 5) and the Manhattan-collapse expansion (Alg. 6) — instead of
re-implementing scatter loops per algorithm.  This package is the NumPy
analogue: one fused, sort-based :func:`scatter_reduce` replaces the
``np.unique`` → ``copy`` → ``np.ufunc.at`` → compare idiom at every
call site (algorithms, patterns, baselines), :func:`segment_reduce`
exposes the underlying segmented reduction for histogram-style kernels,
and :func:`csr_pull` runs a whole dense pull sweep (reduce every row's
neighborhood) straight off the CSR, without an edge list.

Everything here is purely functional: kernels never touch the engine's
cost model or counters, so routing a call site through this layer is
observationally pure for the modeled timings — only wall-clock time
changes.
"""

from .pull import PullCSR, csr_pull
from .scatter import (
    ScatterError,
    scatter_reduce,
    scatter_reduce_lanes,
    segment_reduce,
    unique_bounded,
)

__all__ = [
    "PullCSR",
    "ScatterError",
    "csr_pull",
    "scatter_reduce",
    "scatter_reduce_lanes",
    "segment_reduce",
    "unique_bounded",
]
