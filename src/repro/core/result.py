"""Result containers returned by distributed algorithm runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..comm.clocks import PhaseTimes

__all__ = ["TimingReport", "AlgorithmResult"]


@dataclass(frozen=True)
class TimingReport:
    """Virtual-time accounting of one run.

    All values are modeled seconds on the configured machine, reported
    the way the paper reports them: the maximum over all ranks.
    """

    total: float
    compute: float
    comm: float
    per_iteration: tuple[PhaseTimes, ...] = ()
    #: Fault-handling overhead (straggler stalls, retry backoff,
    #: checkpoint drains); exactly 0.0 in fault-free, checkpoint-free
    #: runs.  Not an additional lane — already contained in ``total``.
    recovery: float = 0.0
    #: Elastic-migration overhead (checkpoint gather, re-partition,
    #: scatter onto the surviving grid); exactly 0.0 unless the run
    #: regridded.  Also contained in ``total``.
    regrid: float = 0.0
    #: Communication time *hidden* behind computation by split-phase
    #: collectives; exactly 0.0 in blocking runs.  The inverse of the
    #: recovery/regrid annotations: hidden seconds are contained in
    #: ``comm`` but NOT in ``total`` (``total`` only pays the exposed
    #: remainder, ``comm - overlap``).
    overlap: float = 0.0
    #: Integrity-verification overhead (ledger digest exchanges at
    #: superstep boundaries, end-of-run result certifiers); exactly
    #: 0.0 in runs without an attached ledger or ``certify=``.  Like
    #: recovery/regrid, already contained in ``total``.
    certify: float = 0.0

    @property
    def comm_fraction(self) -> float:
        """Share of total time spent communicating (paper Fig. 5)."""
        return self.comm / self.total if self.total > 0 else 0.0

    @property
    def regrid_fraction(self) -> float:
        """Share of total time spent migrating to a surviving grid."""
        return self.regrid / self.total if self.total > 0 else 0.0

    def teps(self, n_edges: int) -> float:
        """Traversed edges per second for an ``n_edges`` input."""
        return n_edges / self.total if self.total > 0 else float("inf")


@dataclass
class AlgorithmResult:
    """Output of a distributed algorithm.

    Attributes
    ----------
    values:
        Per-vertex result in *original* GID order (parents, ranks,
        labels, ...).  ``None`` for algorithms whose output is a
        structure (e.g. a matching edge list in ``extra``).
    timings:
        Virtual-time report.
    iterations:
        BSP iterations executed.
    counters:
        Communication statistics summary.
    extra:
        Algorithm-specific payload (e.g. matched pairs, modularity).
    """

    values: Optional[np.ndarray]
    timings: TimingReport
    iterations: int
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
