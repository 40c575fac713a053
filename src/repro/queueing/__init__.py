"""Frontier expansion and GPU load-balance models."""

from .frontier import Expansion, expand_block
from .manhattan import (
    BLOCK_SIZE,
    WARP_SIZE,
    ScheduleStats,
    manhattan_schedule,
    vertex_per_thread_balance,
)

__all__ = [
    "Expansion",
    "expand_block",
    "BLOCK_SIZE",
    "WARP_SIZE",
    "ScheduleStats",
    "manhattan_schedule",
    "vertex_per_thread_balance",
]
