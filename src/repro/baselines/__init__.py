"""Comparator baselines (paper §5.7 and §2 background).

* :mod:`~repro.baselines.oned` — the classic 1D distribution with its
  O(p^2)-message all-to-all ghost exchange, and the 1.5D hub-sharing
  hybrid, both run on an :class:`~repro.core.engine.Engine` over a
  ``Grid2D(R=1, C=p)`` grid.
* :mod:`~repro.baselines.spmv` — CuGraph-like linear-algebra backend
  (Fig. 10 comparison).
"""

from .oned import OneDLayout, cc_1d, cc_15d, default_hub_threshold, layout_1d
from .spmv import spmv_bfs, spmv_cc, spmv_engine, spmv_pagerank

__all__ = [
    "OneDLayout",
    "layout_1d",
    "cc_1d",
    "cc_15d",
    "default_hub_threshold",
    "spmv_bfs",
    "spmv_cc",
    "spmv_engine",
    "spmv_pagerank",
]
