"""Work queues, frontier expansion, and GPU load-balance models."""

from .frontier import Expansion, expand_block, expand_csr
from .hashtable import HashTable, histogram_via_hash_table
from .manhattan import (
    BLOCK_SIZE,
    WARP_SIZE,
    ScheduleStats,
    manhattan_schedule,
    vertex_per_thread_balance,
)
from .vertexqueue import LaneVertexQueue, VertexQueue, unique_new

__all__ = [
    "Expansion",
    "expand_block",
    "expand_csr",
    "HashTable",
    "histogram_via_hash_table",
    "BLOCK_SIZE",
    "WARP_SIZE",
    "ScheduleStats",
    "manhattan_schedule",
    "vertex_per_thread_balance",
    "LaneVertexQueue",
    "VertexQueue",
    "unique_new",
]
