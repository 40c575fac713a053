"""2D communication patterns: dense, sparse, switching, complex."""

from .dense import dense_exchange, dense_exchange_lanes, dense_pull, dense_push
from .sparse import (
    PAIR_DTYPE,
    LaneSparseResult,
    SparseResult,
    propagate_active_pull,
    sparse_pull,
    sparse_push,
    sparse_push_lanes,
)
from .switching import SwitchPolicy

__all__ = [
    "dense_exchange",
    "dense_exchange_lanes",
    "dense_pull",
    "dense_push",
    "PAIR_DTYPE",
    "LaneSparseResult",
    "SparseResult",
    "propagate_active_pull",
    "sparse_pull",
    "sparse_push",
    "sparse_push_lanes",
    "SwitchPolicy",
]
