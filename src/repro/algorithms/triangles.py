"""Distributed triangle counting (extension; paper §1 cites 2D triangle
counting as a flagship application of 2D distributions [30]).

Algebraic formulation: the triangle count is ``sum(A .* (A @ A)) / 6``
for a symmetric 0/1 adjacency matrix.  In the 2D block layout this is
a masked SUMMA: for each inner step ``k``,

* block ``A[I,k]`` broadcasts along row group ``I`` (root: the rank in
  block-column ``k``),
* block ``A[k,J]`` broadcasts along column group ``J`` (root: the rank
  in block-row ``k``),
* every rank multiplies the pair and accumulates the entries that land
  on the nonzeros of its own local block — all ranks at once, as one
  product of the block-diagonal matrices of the received pairs, masked
  by the block-diagonal matrix of the local blocks.

A block travels in a wire form of 12 bytes per entry and 8 per row
(:func:`_pack`), and each receiver computes on what it decoded.

One final one-word AllReduce combines the per-rank partial counts.
Requires a square process grid (the inner dimension must align with
both the row and column partitions, as in the reference 2D algorithms).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..comm.collectives import BroadcastCall
from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..graph.partition.twod import RankBlock

__all__ = ["triangle_count"]


def _block_csr(blk: RankBlock) -> sp.csr_matrix:
    """A rank's block as an (N_R x N_C) scipy matrix in *range-local*
    coordinates (row index within the row range, column within the
    column range)."""
    lm = blk.localmap
    data = np.ones(blk.indices.size)
    return sp.csr_matrix(
        (data, blk.indices - (blk.lid_base + lm.col_offset), blk.indptr),
        shape=(lm.n_row, lm.n_col),
    )


def _pack(block: sp.csr_matrix) -> np.ndarray:
    """A block's wire form: float64 values, int64 row ends and int32
    column ids as one byte buffer."""
    return np.concatenate([
        block.data.astype(np.float64).view(np.uint8),
        block.indptr[1:].astype(np.int64).view(np.uint8),
        block.indices.astype(np.int32).view(np.uint8),
    ])


def _unpack(wire: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    """Invert :func:`_pack` for a block of ``shape``."""
    nnz = (wire.size - 8 * shape[0]) // 12
    ends = wire[8 * nnz : 8 * (nnz + shape[0])].view(np.int64)
    return sp.csr_matrix(
        (
            wire[: 8 * nnz].view(np.float64),
            wire[8 * (nnz + shape[0]) :].view(np.int32),
            np.concatenate([[0], ends]),
        ),
        shape=shape,
    )


def _block_diagonal(blocks: list[sp.csr_matrix]) -> sp.csr_matrix:
    """``sp.block_diag(blocks, format="csr")`` from the blocks' CSR
    arrays: row ends shifted by the running nnz, column ids by the
    running width."""
    (rows, cols), nnz = np.array([b.shape for b in blocks]).T, np.array([b.nnz for b in blocks])
    ends = np.concatenate([b.indptr[1:] for b in blocks]) + np.repeat(np.cumsum(nnz) - nnz, rows)
    ids = np.concatenate([b.indices for b in blocks]) + np.repeat(np.cumsum(cols) - cols, nnz)
    data = np.concatenate([b.data for b in blocks])
    return sp.csr_matrix((data, ids, np.concatenate([[0], ends])), shape=(rows.sum(), cols.sum()))


def _broadcast(engine, groups, root_of, blocks, wire, nic_sharing) -> dict:
    """One Broadcast stage: each group's ``root_of(group id)`` sends its
    block's wire form to the rest of the group.  Returns each member's
    copy of its root's block."""
    groups = list(groups)
    roots = [root_of(gid) for gid, _ in groups]
    received = {
        r: np.empty_like(wire[root])
        for root, (_, ranks) in zip(roots, groups)
        for r in ranks
        if r != root
    }
    calls = [
        BroadcastCall(wire[root], [received[r] for r in ranks if r != root])
        for root, (_, ranks) in zip(roots, groups)
    ]
    engine.comm.broadcast_stage([ranks for _, ranks in groups], calls, nic_sharing)
    return {
        r: blocks[root] if r == root else _unpack(received[r], blocks[root].shape)
        for root, (_, ranks) in zip(roots, groups)
        for r in ranks
    }


def triangle_count(engine: Engine) -> AlgorithmResult:
    """Count triangles with a masked SUMMA over the 2D blocks."""
    grid = engine.grid
    if not grid.is_square:
        raise ValueError(
            "triangle counting requires a square grid (inner dimension "
            f"must align with both partitions); got {grid.C}x{grid.R}"
        )
    engine.reset_timers()
    side = grid.R
    all_ranks = list(range(grid.n_ranks))
    row_share = engine.stage_nic_sharing("row")
    col_share = engine.stage_nic_sharing("col")

    blocks = [_block_csr(blk) for blk in engine.partition.blocks]
    wire = [_pack(block) for block in blocks]
    # every rank's mask on the diagonal: rank r's rows start at row_cuts[r]
    mask = _block_diagonal([block.astype(bool) for block in blocks])
    row_cuts = np.concatenate([[0], np.cumsum([block.shape[0] for block in blocks])])
    partial = np.zeros(grid.n_ranks)

    for k in range(side):
        # A[I,k] along each row group (root at block-col k), A[k,J]
        # along each column group (root at block-row k).
        left = _broadcast(
            engine, engine.row_groups(), lambda i: grid.rank_of(i, k),
            blocks, wire, row_share,
        )
        right = _broadcast(
            engine, engine.col_groups(), lambda j: grid.rank_of(k, j),
            blocks, wire, col_share,
        )

        # Every rank's masked multiply-accumulate as one block-diagonal
        # product: block r of the result is rank r's.
        a = _block_diagonal([left[r] for r in all_ranks])
        b = _block_diagonal([right[r] for r in all_ranks])
        prod = (a @ b).multiply(mask)
        nnz = np.diff(prod.indptr[row_cuts])
        # integer-valued entries: every summation order is exact
        partial += np.bincount(
            np.repeat(all_ranks, nnz), weights=prod.data, minlength=grid.n_ranks
        )
        engine.charge_edges(
            None,
            np.array([left[r].nnz + right[r].nnz for r in all_ranks]) + nnz,
            work_per_edge=2.0,
            segments=np.ones(grid.n_ranks, dtype=np.int64),
        )
        engine.superstep_boundary("tc")

    # Combine partial counts.
    bufs = [np.array([partial[r]]) for r in all_ranks]
    engine.comm.allreduce(all_ranks, bufs, op="sum")
    total = float(bufs[0][0]) / 6.0

    return AlgorithmResult(
        values=None,
        timings=engine.timing_report(),
        iterations=side,
        counters=engine.counters.summary(),
        extra={"n_triangles": int(round(total))},
    )
