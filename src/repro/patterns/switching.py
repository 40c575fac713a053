"""Dense-to-sparse communication switching (paper §3.3.1).

Dense exchanges cost a fixed ``O(N / sqrt(p))`` volume per rank; sparse
exchanges cost volume proportional to updates but pay per-entry
metadata (the GID of every pair) and queue-building kernels.  The paper
switches from dense to sparse once fewer than ``N / max(R, C)``
vertices updated in an iteration, which guarantees the sparse volume
(pairs) is below the dense volume (the largest group slice).

:class:`SwitchPolicy` encapsulates that rule so algorithms can run
``mode="dense"``, ``mode="sparse"``, or ``mode="switch"`` (paper's
``+SW`` configurations in Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..comm.grid import Grid2D

__all__ = ["SwitchPolicy"]


@dataclass
class SwitchPolicy:
    """Tracks whether iterations should communicate dense or sparse.

    Parameters
    ----------
    n_vertices:
        Global vertex count ``N``.
    grid:
        The process grid (supplies ``max(R, C)``).
    mode:
        ``"dense"`` — always dense; ``"sparse"`` — always sparse;
        ``"switch"`` — dense until the update count drops under the
        threshold, then sparse for the rest of the run (updates only
        shrink in the long-tail regime the policy targets).

    ``use_sparse`` is the policy's whole state: a checkpoint saves the
    bit, and a resume sets it on a policy built for the resuming grid.
    """

    n_vertices: int
    grid: Grid2D
    mode: str = "switch"
    #: Communication flavour for the *next* exchange.
    use_sparse: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in ("dense", "sparse", "switch"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_vertices <= 0:
            raise ValueError(f"n_vertices must be positive, got {self.n_vertices}")
        self.use_sparse = self.mode == "sparse"

    @property
    def threshold(self) -> float:
        """Update count below which sparse wins (``N / max(R, C)``)."""
        return self.n_vertices / max(self.grid.R, self.grid.C)

    def observe(self, n_updates: int) -> None:
        """Feed the iteration's global update count into the policy."""
        if self.mode == "switch" and not self.use_sparse:
            if n_updates < self.threshold:
                self.use_sparse = True
