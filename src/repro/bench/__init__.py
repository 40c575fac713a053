"""Benchmark harness reproducing the paper's tables and figures."""

from .harness import (
    ALGORITHMS,
    sample_bfs_roots,
    RANK_GRIDS,
    ExperimentRow,
    format_rows,
    grid_for,
    make_engine,
    run_algorithm,
    strong_scaling,
    weak_scaling,
)
from .reporting import comm_split, to_csv, to_markdown
from .scaling import (
    MemoryEstimate,
    estimate_2d_memory,
    estimate_generic_substrate_memory,
    estimate_la_backend_memory,
    fits,
)

__all__ = [
    "ALGORITHMS",
    "sample_bfs_roots",
    "RANK_GRIDS",
    "ExperimentRow",
    "format_rows",
    "grid_for",
    "make_engine",
    "run_algorithm",
    "strong_scaling",
    "weak_scaling",
    "comm_split",
    "to_csv",
    "to_markdown",
    "MemoryEstimate",
    "estimate_2d_memory",
    "estimate_generic_substrate_memory",
    "estimate_la_backend_memory",
    "fits",
]
