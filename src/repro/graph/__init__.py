"""Graph data structures, generators, datasets, and partitioners."""

from .csr import Graph, index_dtype
from .datasets import REGISTRY, DatasetMeta, LoadedDataset, available, load
from .generators import (
    chung_lu_powerlaw,
    erdos_renyi_gnm,
    rmat,
    rmat_edges,
    web_graph,
)
from .localmap import LocalMap
from .transforms import induced_subgraph, largest_component
from .partition.striped import (
    block_permutation,
    group_ranges,
    random_permutation,
    striped_permutation,
)
from .partition.twod import RankBlock, TwoDPartition, partition_2d

__all__ = [
    "Graph",
    "index_dtype",
    "REGISTRY",
    "DatasetMeta",
    "LoadedDataset",
    "available",
    "load",
    "chung_lu_powerlaw",
    "erdos_renyi_gnm",
    "rmat",
    "rmat_edges",
    "web_graph",
    "LocalMap",
    "block_permutation",
    "group_ranges",
    "random_permutation",
    "striped_permutation",
    "induced_subgraph",
    "largest_component",
    "RankBlock",
    "TwoDPartition",
    "partition_2d",
]
