"""Vertex distributions and matrix partitioners (1D, 2D)."""

from .striped import (
    block_permutation,
    group_ranges,
    random_permutation,
    striped_permutation,
)
from .twod import RankBlock, TwoDPartition, partition_2d

__all__ = [
    "block_permutation",
    "group_ranges",
    "random_permutation",
    "striped_permutation",
    "RankBlock",
    "TwoDPartition",
    "partition_2d",
]
