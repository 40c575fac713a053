"""Reference graph build and 2D blocking through scipy's COO->CSR.

These are the bodies :meth:`repro.graph.Graph.from_edges` and
:func:`repro.graph.partition_2d` had before both became one int64 key
sort.  They stay here, under ``tests/`` only, as the oracles the sort
path must reproduce array for array (``test_build_oracle.py``), the way
``scatter_reduce_reference`` backs the scatter kernel.  The partition
oracle holds its adjacency as ``int64`` stacked LIDs (a rank's local
LID plus its ``lid_offsets`` entry); the library narrows both graph
and partition ids to ``index_dtype``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.graph import Graph
from repro.graph.localmap import LocalMap
from repro.graph.partition.striped import group_ranges
from repro.graph.partition.twod import _DISTRIBUTIONS, RankBlock, TwoDPartition

__all__ = ["from_edges_reference", "partition_2d_reference"]


def from_edges_reference(
    src,
    dst,
    n_vertices: int,
    weights: Optional[np.ndarray] = None,
    symmetrize: bool = True,
    remove_self_loops: bool = True,
) -> Graph:
    """Edge list -> CSR, duplicates merged keeping the maximum weight."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    if remove_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if weights is not None:
            weights = weights[keep]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if weights is not None:
            weights = np.concatenate([weights, weights])
    if weights is not None:
        order = np.lexsort((dst, src))
        s, d, w = src[order], dst[order], weights[order]
        if s.size:
            key_change = np.empty(s.size, dtype=bool)
            key_change[0] = True
            key_change[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
            w = np.maximum.reduceat(w, np.flatnonzero(key_change))
            s, d = s[key_change], d[key_change]
        mat = sp.csr_matrix((w, (s, d)), shape=(n_vertices, n_vertices))
    else:
        data = np.ones(src.size, dtype=np.float64)
        mat = sp.coo_matrix((data, (src, dst)), shape=(n_vertices, n_vertices))
        mat = mat.tocsr()
        mat.sum_duplicates()
        mat.data[:] = 1.0
    mat.sort_indices()
    return Graph(
        indptr=mat.indptr.astype(np.int64),
        indices=mat.indices.astype(np.int64),
        weights=mat.data.astype(np.float64) if weights is not None else None,
    )


def _permute_reference(graph: Graph, perm: np.ndarray) -> Graph:
    n = graph.n_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    return from_edges_reference(
        perm[src],
        perm[graph.indices],
        n,
        weights=graph.weights,
        symmetrize=False,
        remove_self_loops=False,
    )


def partition_2d_reference(
    graph: Graph, grid, distribution: str = "striped", seed: int = 0
) -> TwoDPartition:
    """Relabel, then slice the scipy matrix block by block in rank order."""
    perm_fn = _DISTRIBUTIONS[distribution]
    n = graph.n_vertices
    if distribution == "random":
        perm = perm_fn(n, grid.C, seed=seed)
    else:
        perm = perm_fn(n, grid.C)
    relabeled = (
        _permute_reference(graph, perm)
        if not np.array_equal(perm, np.arange(n))
        else graph
    )
    mat = relabeled.to_scipy()

    row_offsets = group_ranges(n, grid.C)
    col_offsets = group_ranges(n, grid.R)
    n_ranks = grid.n_ranks
    maps = [
        LocalMap(
            row_start=int(row_offsets[id_r]),
            row_stop=int(row_offsets[id_r + 1]),
            col_start=int(col_offsets[id_c]),
            col_stop=int(col_offsets[id_c + 1]),
        )
        for id_r in range(grid.C)
        for id_c in range(grid.R)
    ]
    lid_offsets = np.zeros(n_ranks + 1, dtype=np.int64)
    lid_offsets[1:] = np.cumsum([lm.n_total for lm in maps])
    ptr_offsets = np.zeros(n_ranks + 1, dtype=np.int64)
    ptr_offsets[1:] = np.cumsum(np.repeat(np.diff(row_offsets) + 1, grid.R))
    edge_offsets = np.zeros(n_ranks + 1, dtype=np.int64)
    indptr = np.empty(int(ptr_offsets[-1]), dtype=np.int64)
    indices = np.empty(relabeled.n_edges, dtype=np.int64)
    weights = (
        np.empty(relabeled.n_edges, dtype=mat.data.dtype)
        if graph.is_weighted
        else None
    )
    blocks: list[RankBlock] = []
    for id_r in range(grid.C):
        rs, re = int(row_offsets[id_r]), int(row_offsets[id_r + 1])
        slab = mat[rs:re]
        for id_c in range(grid.R):
            cs, ce = int(col_offsets[id_c]), int(col_offsets[id_c + 1])
            block = slab[:, cs:ce].tocsr()
            block.sort_indices()
            rank = grid.rank_of(id_r, id_c)
            lm = maps[rank]
            lid_base = int(lid_offsets[rank])
            e0 = int(edge_offsets[rank])
            e1 = e0 + block.indices.size
            edge_offsets[rank + 1] = e1
            ptr = slice(int(ptr_offsets[rank]), int(ptr_offsets[rank + 1]))
            indptr[ptr] = block.indptr
            np.add(block.indices, lid_base + lm.col_offset, out=indices[e0:e1])
            if weights is not None:
                weights[e0:e1] = block.data
            blocks.append(
                RankBlock(
                    rank=rank,
                    id_r=id_r,
                    id_c=id_c,
                    localmap=lm,
                    indptr=indptr[ptr],
                    indices=indices[e0:e1],
                    weights=weights[e0:e1] if weights is not None else None,
                    lid_base=lid_base,
                )
            )
    return TwoDPartition(
        grid=grid,
        n_vertices=n,
        n_edges=relabeled.n_edges,
        row_offsets=row_offsets,
        col_offsets=col_offsets,
        perm=perm,
        blocks=blocks,
        weighted=graph.is_weighted,
        distribution=distribution,
        indptr=indptr,
        indices=indices,
        weights=weights,
        ptr_offsets=ptr_offsets,
        edge_offsets=edge_offsets,
        lid_offsets=lid_offsets,
    )
