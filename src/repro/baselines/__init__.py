"""Comparator engines (paper §5.7 and §2 background).

* :mod:`~repro.baselines.oned_engine` — classic 1D distribution with
  O(p^2)-message all-to-all ghost exchange.
* :mod:`~repro.baselines.spmv` — CuGraph-like linear-algebra backend
  (Fig. 10 comparison).
"""

from .oned_engine import OneDEngine, OneDPartition, bfs_1d, cc_1d, pagerank_1d
from .onefive import OneFiveDEngine, cc_15d, default_hub_threshold
from .spmv import spmv_bfs, spmv_cc, spmv_engine, spmv_pagerank

__all__ = [
    "OneDEngine",
    "OneDPartition",
    "bfs_1d",
    "cc_1d",
    "pagerank_1d",
    "OneFiveDEngine",
    "cc_15d",
    "default_hub_threshold",
    "spmv_bfs",
    "spmv_cc",
    "spmv_engine",
    "spmv_pagerank",
]
