"""2D block partitioning of a graph onto a process grid (paper §3.2).

Pipeline:

1. relabel vertices with a distribution permutation (striped by
   default) so each row group owns a contiguous new-GID range;
2. split the relabeled adjacency matrix into ``C`` block-rows x ``R``
   block-columns;
3. store each block as a local CSR whose rows are indexed by row-local
   position and whose adjacency entries are *column local IDs* per the
   rank's arithmetic :class:`~repro.graph.localmap.LocalMap` — held as
   *stacked* LIDs, the local LID plus the rank's ``lid_base``.

All three steps are one sort: each edge gets one int64 key (rank, local
row, local column) from two per-vertex tables, so no relabeled graph
and no per-block slice is ever built.

The blocks are laid out rank after rank in **one** concatenated CSR
(:attr:`TwoDPartition.indptr` / ``indices`` / ``weights``); a
:class:`RankBlock`'s arrays are slices of it.  Rank ``r``'s LIDs start
at ``lid_offsets[r]`` in the ranks' concatenated LID space (the
stacked LIDs of :mod:`repro.core.fleet`), and ``indices`` holds every
edge's target in that space, in :func:`~repro.graph.index_dtype`
(``int32`` while it fits).  So the rank-stacked passes expand every
rank's edges, and the pull kernel multiplies by the whole fleet, over
this one array: no second edge-sized copy, no rebasing.

A rank's local degree of a vertex is generally *not* its true degree;
true degrees are the sum of local degrees across the row group (paper
§3.2), which :meth:`TwoDPartition.local_row_degrees` + a row-group
AllReduce recovers (exercised in tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...comm.grid import Grid2D
from ..csr import Graph, index_dtype
from ..localmap import LocalMap
from .striped import (
    block_permutation,
    group_ranges,
    random_permutation,
    striped_permutation,
)

__all__ = ["RankBlock", "TwoDPartition", "partition_2d"]

_DISTRIBUTIONS = {
    "striped": striped_permutation,
    "random": random_permutation,
    "block": block_permutation,
}


@dataclass
class RankBlock:
    """One rank's share of the 2D-partitioned graph.

    ``indptr`` is indexed by *row-local position* (``0..N_R``); add
    ``localmap.row_offset`` to get the row vertex's LID.  ``indices``
    holds column-vertex LIDs *stacked*: subtract ``lid_base`` for the
    rank's own LIDs (:func:`~repro.queueing.frontier.expand_block`
    does).
    """

    rank: int
    id_r: int
    id_c: int
    localmap: LocalMap
    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray] = None
    #: Where the rank's LIDs start in the stacked LID space
    #: (``TwoDPartition.lid_offsets[rank]``).
    lid_base: int = 0
    #: ``N_T``: length of this rank's state arrays.
    n_total: int = field(init=False)

    def __post_init__(self) -> None:
        self.n_total = self.localmap.n_total

    @property
    def n_local_edges(self) -> int:
        return self.indices.size

    def local_row_degrees(self) -> np.ndarray:
        """Local degree of each row vertex (row-local order)."""
        return np.diff(self.indptr)

    def row_lids(self) -> np.ndarray:
        """LIDs of the rank's row vertices."""
        lm = self.localmap
        return np.arange(lm.row_offset, lm.row_offset + lm.n_row, dtype=np.int64)

    def col_lids(self) -> np.ndarray:
        """LIDs of the rank's column vertices."""
        lm = self.localmap
        return np.arange(lm.col_offset, lm.col_offset + lm.n_col, dtype=np.int64)


@dataclass
class TwoDPartition:
    """A graph distributed over a :class:`Grid2D`.

    ``perm`` maps original GIDs to relabeled GIDs; all block structures
    and all state vectors produced by the engine live in relabeled GID
    order until results are mapped back via :meth:`to_original_order`.
    """

    grid: Grid2D
    n_vertices: int
    n_edges: int
    row_offsets: np.ndarray  # C + 1 boundaries of block-row GID ranges
    col_offsets: np.ndarray  # R + 1 boundaries of block-col GID ranges
    perm: np.ndarray
    blocks: list[RankBlock]
    #: The concatenated CSR the blocks are slices of, in rank order:
    #: rank ``r`` holds ``indptr[ptr_offsets[r]:ptr_offsets[r + 1]]``
    #: (its ``N_R + 1`` row pointers, counted from its own first edge)
    #: and ``indices``/``weights[edge_offsets[r]:edge_offsets[r + 1]]``.
    #: ``indices`` are stacked column LIDs.
    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray]
    ptr_offsets: np.ndarray
    edge_offsets: np.ndarray
    #: ``p + 1`` exclusive prefix sums of the ranks' ``N_T``: rank
    #: ``r``'s LID ``lid`` is stacked LID ``lid_offsets[r] + lid``.
    lid_offsets: np.ndarray
    weighted: bool = False
    distribution: str = "striped"

    # ------------------------------------------------------------------
    # ranges
    # ------------------------------------------------------------------
    def row_range(self, id_r: int) -> tuple[int, int]:
        """Relabeled-GID range owned by row group ``id_r``."""
        return int(self.row_offsets[id_r]), int(self.row_offsets[id_r + 1])

    def block(self, rank: int) -> RankBlock:
        return self.blocks[rank]

    # ------------------------------------------------------------------
    # collecting global vectors
    # ------------------------------------------------------------------
    def gather_row_state(self, states: list[np.ndarray]) -> np.ndarray:
        """Assemble the global state vector from per-rank states.

        Takes the row window of the first rank of each row group (all
        ranks in a group are consistent after an algorithm finishes —
        validated by tests) and maps back to original GID order.
        """
        out = None
        for id_r in range(self.grid.C):
            rank = self.grid.rank_of(id_r, 0)
            blk = self.blocks[rank]
            lm = blk.localmap
            piece = states[rank][lm.row_slice]
            if out is None:
                out = np.zeros(
                    (self.n_vertices,) + piece.shape[1:], dtype=piece.dtype
                )
            out[lm.row_start : lm.row_stop] = piece
        assert out is not None
        return self.to_original_order(out)

    def to_original_order(self, relabeled_vec: np.ndarray) -> np.ndarray:
        """Convert a relabeled-GID-ordered vector to original GID order."""
        return np.asarray(relabeled_vec)[self.perm]

    def to_relabeled_order(self, original_vec: np.ndarray) -> np.ndarray:
        """Convert an original-GID-ordered vector to relabeled order."""
        original_vec = np.asarray(original_vec)
        out = np.empty_like(original_vec)
        out[self.perm] = original_vec
        return out

    def original_gid(self, relabeled: np.ndarray) -> np.ndarray:
        """Original GIDs of relabeled GIDs (inverse permutation)."""
        if not hasattr(self, "_inv_perm"):
            inv = np.empty(self.n_vertices, dtype=np.int64)
            inv[self.perm] = np.arange(self.n_vertices, dtype=np.int64)
            self._inv_perm = inv
        return self._inv_perm[np.asarray(relabeled)]

    # ------------------------------------------------------------------
    # sanity
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the blocks partition exactly the relabeled edge set,
        each block's targets inside its column window (stacked)."""
        total = sum(b.n_local_edges for b in self.blocks)
        if total != self.n_edges:
            raise AssertionError(
                f"blocks hold {total} edges, graph has {self.n_edges}"
            )
        for blk in self.blocks:
            lm = blk.localmap
            if blk.lid_base != self.lid_offsets[blk.rank]:
                raise AssertionError(f"rank {blk.rank}: lid_base is not its offset")
            if blk.indptr.size != lm.n_row + 1:
                raise AssertionError(f"rank {blk.rank}: bad indptr length")
            if blk.indices.size:
                lo, hi = blk.indices.min(), blk.indices.max()
                first = blk.lid_base + lm.col_offset
                if lo < first or hi >= first + lm.n_col:
                    raise AssertionError(f"rank {blk.rank}: adjacency LID out of range")


def partition_2d(
    graph: Graph,
    grid: Grid2D,
    distribution: str = "striped",
    seed: int = 0,
) -> TwoDPartition:
    """Distribute ``graph`` over ``grid`` (see module docstring).

    Parameters
    ----------
    distribution:
        ``"striped"`` (paper default), ``"random"``, or ``"block"``.
    """
    try:
        perm_fn = _DISTRIBUTIONS[distribution]
    except KeyError:
        raise ValueError(
            f"unknown distribution {distribution!r}; "
            f"choose from {sorted(_DISTRIBUTIONS)}"
        ) from None
    n = graph.n_vertices
    R, n_ranks = grid.R, grid.n_ranks
    row_offsets = group_ranges(n, grid.C)
    col_offsets = group_ranges(n, R)
    # Widest row / column window (group_ranges puts the extra vertex
    # first): one block spans m_r * m_c keys.
    m_r = int(row_offsets[1] - row_offsets[0])
    m_c = int(col_offsets[1] - col_offsets[0])
    stride = m_r * m_c
    if n_ranks * stride >= 2**63:
        raise ValueError(
            f"{grid.C}x{R} blocks of {m_r}x{m_c} overflow the int64 edge key"
        )
    if distribution == "random":
        perm = perm_fn(n, grid.C, seed=seed)
    else:
        perm = perm_fn(n, grid.C)
    if perm.shape != (n,) or not np.bincount(perm, minlength=n).all():
        raise ValueError("perm is not a permutation")

    # One key per edge, rank * stride + local row * m_c + local column:
    # ranks are row-major, so one sort lays the edges out as every
    # block's CSR, block after block, without relabeling the graph.
    row_group = np.searchsorted(row_offsets, perm, side="right") - 1
    src_part = (row_group * (R * m_r) + perm - row_offsets[row_group]) * m_c
    col_group = np.searchsorted(col_offsets, perm, side="right") - 1
    dst_part = col_group * stride + perm - col_offsets[col_group]
    key = np.repeat(src_part, graph.degrees())
    key += dst_part[graph.indices]
    weights = None
    if graph.is_weighted:
        order = np.argsort(key)  # keys are unique: no stability needed
        key = key[order]
        weights = graph.weights[order]
        del order
    else:
        key.sort()

    # The blocks below are views of the one concatenated CSR.
    edge_offsets = np.searchsorted(key, np.arange(n_ranks + 1) * stride)
    n_ptrs = np.repeat(np.diff(row_offsets) + 1, R)  # N_R + 1 a rank
    ptr_offsets = np.zeros(n_ranks + 1, dtype=np.int64)
    np.cumsum(n_ptrs, out=ptr_offsets[1:])
    ptr_rank = np.repeat(np.arange(n_ranks), n_ptrs)
    row = np.arange(ptr_offsets[-1]) - ptr_offsets[ptr_rank]
    indptr = np.searchsorted(key, ptr_rank * stride + row * m_c)
    indptr -= edge_offsets[ptr_rank]
    maps = [
        LocalMap(
            row_start=int(row_offsets[id_r]),
            row_stop=int(row_offsets[id_r + 1]),
            col_start=int(col_offsets[id_c]),
            col_stop=int(col_offsets[id_c + 1]),
        )
        for id_r in range(grid.C)
        for id_c in range(R)  # ranks are row-major
    ]
    lid_offsets = np.zeros(n_ranks + 1, dtype=np.int64)
    np.cumsum([lm.n_total for lm in maps], out=lid_offsets[1:])
    # The local column, shifted to the stacked column LID, written
    # straight into the narrow array; then the key goes.
    np.remainder(key, m_c, out=key)
    indices = np.empty(key.size, dtype=index_dtype(int(lid_offsets[-1]), key.size))
    blocks: list[RankBlock] = []
    for rank, lm in enumerate(maps):
        edges = slice(int(edge_offsets[rank]), int(edge_offsets[rank + 1]))
        lid_base = int(lid_offsets[rank])
        np.add(key[edges], lid_base + lm.col_offset, out=indices[edges], casting="unsafe")
        id_r, id_c = divmod(rank, R)
        blocks.append(
            RankBlock(
                rank=rank,
                id_r=id_r,
                id_c=id_c,
                localmap=lm,
                indptr=indptr[ptr_offsets[rank] : ptr_offsets[rank + 1]],
                indices=indices[edges],
                weights=weights[edges] if weights is not None else None,
                lid_base=lid_base,
            )
        )
    del key
    part = TwoDPartition(
        grid=grid,
        n_vertices=n,
        n_edges=graph.n_edges,
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
    part.validate()
    return part
