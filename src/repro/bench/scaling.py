"""Full-scale projections: headline TEPS and memory feasibility.

Two things the paper reports that depend on *absolute* dataset sizes:

* the headline throughput — "26-123 billion edges processed per second
  on 400xV100 GPUs" for WDC12, depending on algorithm complexity
  (paper abstract / §5.3);
* out-of-memory outcomes — Gluon-GPU could not load GSH or ClueWeb on
  AiMOS, CuGraph could not fit RMAT28 on zepy (paper §5.7).

Because the engines run on machines scaled by the dataset's stand-in
factor, modeled run times approximate full-scale times directly, and
TEPS follows from the full dataset edge count.  Memory feasibility is
computed analytically from the distribution's footprint formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.config import ClusterConfig
from ..cluster.device import INDEX_BYTES as _INDEX_BYTES
from ..graph.datasets import DatasetMeta

__all__ = [
    "MemoryEstimate",
    "estimate_2d_memory",
    "estimate_generic_substrate_memory",
    "estimate_la_backend_memory",
    "fits",
]

_STATE_BYTES = 8  # float64 state values
_STATE_ARRAYS = 4  # typical live state arrays during an algorithm


@dataclass(frozen=True)
class MemoryEstimate:
    """Per-rank modeled footprint of a distributed graph."""

    bytes_per_rank: int
    capacity: int
    layout: str

    @property
    def fits(self) -> bool:
        return self.bytes_per_rank <= self.capacity

def estimate_2d_memory(
    meta: DatasetMeta,
    n_ranks: int,
    cluster: ClusterConfig,
    overhead_factor: float = 1.0,
) -> MemoryEstimate:
    """Footprint of the paper's 2D layout on ``n_ranks`` devices.

    Per rank: ``M/p`` adjacency entries + ``O(N/sqrt(p))`` local IDs of
    state for both the row and column windows.  ``overhead_factor``
    models heavier frameworks (Gluon's general-purpose metadata).
    """
    import math

    side = max(int(math.sqrt(n_ranks)), 1)
    edges = meta.n_edges / n_ranks * _INDEX_BYTES
    offsets = meta.n_vertices / side * _INDEX_BYTES  # local CSR offsets
    state = 2 * meta.n_vertices / side * _STATE_BYTES * _STATE_ARRAYS
    total = int((edges + offsets + state) * overhead_factor)
    return MemoryEstimate(
        bytes_per_rank=total,
        capacity=cluster.gpu.memory_bytes,
        layout=f"2D ({overhead_factor:g}x overhead)" if overhead_factor != 1.0 else "2D",
    )


def estimate_generic_substrate_memory(
    meta: DatasetMeta, n_ranks: int, cluster: ClusterConfig
) -> MemoryEstimate:
    """Footprint of a general-purpose-substrate 2D framework (Gluon-like).

    A substrate supporting arbitrary distributions cannot rely on the
    paper's arithmetic local-ID compaction; its per-host proxy/metadata
    structures scale with the *global* vertex count.  Modeled as the 2D
    edge share plus ``O(N)`` state/metadata words per rank — which
    reproduces exactly the paper's observed pattern: Gluon-GPU loads
    TW, FR and RMAT28 but fails allocation on GSH and ClueWeb (§5.7).
    """
    edges = meta.n_edges / n_ranks * _INDEX_BYTES
    global_state = meta.n_vertices * (_INDEX_BYTES + _STATE_BYTES * _STATE_ARRAYS)
    total = int(edges + global_state)
    return MemoryEstimate(
        bytes_per_rank=total,
        capacity=cluster.gpu.memory_bytes,
        layout="generic-substrate 2D",
    )


def estimate_la_backend_memory(
    meta: DatasetMeta,
    n_ranks: int,
    cluster: ClusterConfig,
    construction_peak_factor: float = 4.0,
    symmetrized: bool = True,
) -> MemoryEstimate:
    """Footprint of a linear-algebra backend (CuGraph-like).

    ETL (renumbering, COO->CSR conversion, weight columns) holds several
    transient copies of the edge list, so the *peak* footprint is a
    multiple of the final CSR.  With the default 4x peak this reproduces
    the paper's zepy observations: RMAT26 runs on 4xA100 but RMAT28 (and
    everything larger) fails (§5.7).
    """
    import math

    stored = meta.n_edges * (2 if symmetrized else 1)
    side = max(int(math.sqrt(n_ranks)), 1)
    edges_peak = stored / n_ranks * _INDEX_BYTES * construction_peak_factor
    vectors = meta.n_vertices / side * _STATE_BYTES * _STATE_ARRAYS
    total = int(edges_peak + vectors)
    return MemoryEstimate(
        bytes_per_rank=total,
        capacity=cluster.gpu.memory_bytes,
        layout=f"LA backend ({construction_peak_factor:g}x ETL peak)",
    )


def fits(estimate: MemoryEstimate) -> bool:
    """Convenience predicate for readability at call sites."""
    return estimate.fits
