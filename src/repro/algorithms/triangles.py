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
  on the nonzeros of its own local block.

One final one-word AllReduce combines the per-rank partial counts.
Requires a square process grid (the inner dimension must align with
both the row and column partitions, as in the reference 2D algorithms).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.engine import Engine
from ..core.result import AlgorithmResult

__all__ = ["triangle_count"]


def _block_csr(engine: Engine, rank: int) -> sp.csr_matrix:
    """A rank's block as an (N_R x N_C) scipy matrix in *range-local*
    coordinates (row index within the row range, column within the
    column range)."""
    ctx = engine.ctx(rank)
    blk = ctx.block
    lm = blk.localmap
    data = np.ones(blk.indices.size)
    return sp.csr_matrix(
        (data, blk.indices - (blk.lid_base + lm.col_offset), blk.indptr),
        shape=(lm.n_row, lm.n_col),
    )


def triangle_count(engine: Engine) -> AlgorithmResult:
    """Count triangles with a masked SUMMA over the 2D blocks."""
    part, grid = engine.partition, engine.grid
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

    blocks = dict(
        zip(all_ranks, engine.map_ranks(lambda ctx: _block_csr(engine, ctx.rank)))
    )
    masks = dict(
        zip(all_ranks, engine.map_ranks(lambda ctx: blocks[ctx.rank].astype(bool)))
    )
    partial = np.zeros(grid.n_ranks)

    for k in range(side):
        # Broadcast A[I,k] along each row group (root at block-col k).
        left: dict[int, sp.csr_matrix] = {}
        for id_r, ranks in engine.row_groups():
            root = grid.rank_of(id_r, k)
            payload = blocks[root]
            nbytes = int(payload.nnz * 12 + payload.shape[0] * 8)
            t = engine.costmodel.broadcast_time(ranks, nbytes, nic_sharing=row_share)
            engine.clocks.sync_group(ranks, t)
            engine.counters.record(
                "broadcast",
                serial_messages=len(ranks) - 1,
                transfers=len(ranks) - 1,
                nbytes=nbytes * (len(ranks) - 1),
            )
            for r in ranks:
                left[r] = payload
        # Broadcast A[k,J] along each column group (root at block-row k).
        right: dict[int, sp.csr_matrix] = {}
        for id_c, ranks in engine.col_groups():
            root = grid.rank_of(k, id_c)
            payload = blocks[root]
            nbytes = int(payload.nnz * 12 + payload.shape[0] * 8)
            t = engine.costmodel.broadcast_time(ranks, nbytes, nic_sharing=col_share)
            engine.clocks.sync_group(ranks, t)
            engine.counters.record(
                "broadcast",
                serial_messages=len(ranks) - 1,
                transfers=len(ranks) - 1,
                nbytes=nbytes * (len(ranks) - 1),
            )
            for r in ranks:
                right[r] = payload

        # Local masked multiply-accumulate.
        def multiply_accumulate(ctx):
            r = ctx.rank
            a, b, mask = left[r], right[r], masks[r]
            prod = (a @ b).multiply(mask)
            partial[r] += prod.sum()
            engine.charge_edges(
                r,
                np.array([a.nnz + b.nnz + prod.nnz]),
                work_per_edge=2.0,
            )

        engine.foreach(multiply_accumulate)
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
