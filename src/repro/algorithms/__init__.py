"""Distributed graph algorithms (paper Table 3).

==============================  ==========================================
Algorithm                        Entry point
==============================  ==========================================
Breadth-first search (BFS)       :func:`repro.algorithms.bfs.bfs`
PageRank (PR)                    :func:`repro.algorithms.pagerank.pagerank`
Connected components (CC)        :func:`repro.algorithms.components.connected_components`
Label propagation (LP)           :func:`repro.algorithms.labelprop.label_propagation`
Approx. max weight matching      :func:`repro.algorithms.matching.max_weight_matching`
Pointer jumping (PJ)             :func:`repro.algorithms.pointerjump.pointer_jumping`
==============================  ==========================================
"""

from .batch import bfs_batch, sssp_batch
from .betweenness import betweenness
from .bfs import ALPHA, BETA, bfs, validate_roots
from .coloring import greedy_coloring, is_proper_coloring
from .components import CC_VARIANTS, connected_components
from .kcore import core_numbers
from .labelprop import label_propagation
from .matching import max_weight_matching
from .pagerank import pagerank
from .pointerjump import pointer_jumping
from .sssp import sssp
from .triangles import triangle_count

__all__ = [
    "ALPHA",
    "BETA",
    "betweenness",
    "bfs",
    "bfs_batch",
    "sssp_batch",
    "validate_roots",
    "greedy_coloring",
    "is_proper_coloring",
    "CC_VARIANTS",
    "connected_components",
    "core_numbers",
    "label_propagation",
    "max_weight_matching",
    "pagerank",
    "pointer_jumping",
    "sssp",
    "triangle_count",
]
