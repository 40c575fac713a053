"""Simulated GPU cluster substrate: machine configs, topology, cost model.

This subpackage stands in for the hardware the paper ran on (AiMOS:
400x V100 over EDR InfiniBand; zepy: 4x A100).  See DESIGN.md for the
substitution rationale.
"""

from .config import AIMOS, DGX, ZEPY, A100, V100, ClusterConfig, GPUSpec, LinkSpec, NodeSpec
from .costmodel import GENERIC_PROFILE, NCCL_PROFILE, CommProfile, CostModel
from .device import DeviceLedger, DeviceMemoryError
from .topology import GroupProfile, Placement, Topology

__all__ = [
    "AIMOS",
    "DGX",
    "ZEPY",
    "A100",
    "V100",
    "ClusterConfig",
    "GPUSpec",
    "LinkSpec",
    "NodeSpec",
    "CommProfile",
    "CostModel",
    "NCCL_PROFILE",
    "GENERIC_PROFILE",
    "DeviceLedger",
    "DeviceMemoryError",
    "GroupProfile",
    "Placement",
    "Topology",
]
