"""2D grid geometry, virtual clocks, counters, and collectives."""

from .clocks import InflightCollective, PhaseTimes, VirtualClocks
from .collectives import REDUCE_OPS, BroadcastCall, CollectiveHandle, Communicator, rank_major
from .counters import CommCounters, OpStats
from .grid import Grid2D, factor_pairs, square_grid

__all__ = [
    "InflightCollective",
    "PhaseTimes",
    "VirtualClocks",
    "REDUCE_OPS",
    "BroadcastCall",
    "CollectiveHandle",
    "Communicator",
    "rank_major",
    "CommCounters",
    "OpStats",
    "Grid2D",
    "factor_pairs",
    "square_grid",
]
