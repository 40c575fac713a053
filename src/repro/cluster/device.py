"""Virtual GPU devices with memory accounting.

The paper reports out-of-memory failures as first-class results (Gluon
could not load GSH or ClueWeb; CuGraph could not fit RMAT28 on zepy).
To reproduce those, every per-rank allocation in the simulator is
charged against a :class:`VirtualGPU` with the real device capacity.
The tracked quantities are the *modeled* full-scale sizes, so the
feasibility answers hold even when the simulation itself runs on a
scaled-down stand-in graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import GPUSpec

__all__ = ["INDEX_BYTES", "DeviceMemoryError", "VirtualGPU"]

#: Bytes of one modeled adjacency entry (an ``int64`` index): what a
#: device is charged per stored edge, whatever the host's index dtype.
INDEX_BYTES = 8


class DeviceMemoryError(MemoryError):
    """Raised when a rank's modeled allocations exceed device memory."""

    def __init__(self, device: "VirtualGPU", requested: int):
        self.device = device
        self.requested = int(requested)
        super().__init__(
            f"rank {device.rank} ({device.spec.name}): allocation of "
            f"{requested} bytes exceeds capacity "
            f"({device.allocated_bytes}/{device.spec.memory_bytes} in use)"
        )


@dataclass
class VirtualGPU:
    """One simulated GPU rank's memory ledger.

    Allocations are named so over-subscription reports can say *what*
    did not fit, matching how the paper discusses allocation failures.

    Parameters
    ----------
    rank:
        Global rank id.
    spec:
        GPU model (capacity comes from here).
    scale_factor:
        Multiplier applied to every charge, used to account full-scale
        dataset footprints while simulating on a scaled stand-in.
    enforce:
        When False, over-subscription is recorded but not raised
        (useful for "would this fit?" queries).
    """

    rank: int
    spec: GPUSpec
    scale_factor: float = 1.0
    enforce: bool = True
    allocated_bytes: int = 0
    peak_bytes: int = 0
    ledger: dict[str, int] = field(default_factory=dict)

    def charge(self, label: str, nbytes: int) -> None:
        """Charge ``nbytes`` (pre-scale) against the device."""
        nbytes = int(nbytes * self.scale_factor)
        if nbytes < 0:
            raise ValueError(f"negative allocation for {label!r}: {nbytes}")
        if self.enforce and self.allocated_bytes + nbytes > self.spec.memory_bytes:
            raise DeviceMemoryError(self, nbytes)
        self.ledger[label] = self.ledger.get(label, 0) + nbytes
        self.allocated_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)

    def charge_array(self, label: str, array: np.ndarray) -> None:
        """Charge the footprint of a concrete NumPy array."""
        self.charge(label, array.nbytes)

    def release(self, label: str) -> None:
        """Release everything charged under ``label``."""
        nbytes = self.ledger.pop(label, 0)
        self.allocated_bytes -= nbytes

    @property
    def free_bytes(self) -> int:
        return self.spec.memory_bytes - self.allocated_bytes

    @property
    def oversubscribed(self) -> bool:
        return self.peak_bytes > self.spec.memory_bytes

    def utilization(self) -> float:
        """Peak fraction of device memory used (may exceed 1.0 when
        ``enforce`` is off)."""
        return self.peak_bytes / self.spec.memory_bytes
