"""Local Manhattan Collapse scheduling model (paper §3.4.2, Alg. 6).

On the GPU, the collapse assigns one queue vertex per thread of a
block, prefix-sums the degrees in shared memory, and then walks the
block's total edge work with a binary search per edge — giving each
thread (almost) the same number of edges regardless of degree skew.

In the simulator the *functional* expansion is done by
:func:`repro.queueing.frontier.expand_csr`; this module reproduces the
*schedule* so the cost model can charge realistic kernel times:

* :func:`manhattan_schedule` computes, per thread block, the prefix
  sums and per-thread edge counts exactly as Alg. 6 would; its
  ``balance`` output is the efficiency the cost model multiplies into
  the edge rate.
* :func:`vertex_per_thread_balance` models the naive alternative (each
  thread serially expands its own vertex) where a warp's runtime is its
  maximum degree — the behaviour the paper's queue-based kernels avoid.

Both take an optional ``segments`` argument — the lengths of the
consecutive per-rank queues ``degrees`` is the concatenation of — and
then schedule every queue in one segmented pass, returning a
:class:`ScheduleStats` whose fields are arrays with one entry per
segment, each equal to what the single-queue call returns for that
segment (integer arithmetic throughout, and the same final division).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_SIZE",
    "WARP_SIZE",
    "ScheduleStats",
    "manhattan_schedule",
    "vertex_per_thread_balance",
]

#: Threads per block the paper's kernels launch with.
BLOCK_SIZE = 256
#: SIMT warp width.
WARP_SIZE = 32


@dataclass(frozen=True)
class ScheduleStats:
    """Work distribution produced by a schedule (of one queue: scalar
    fields; of ``segments`` queues at once: one array entry each)."""

    total_edges: int
    n_blocks: int
    balance: float  # in (0, 1]: useful work / occupied thread-cycles
    max_thread_edges: int


def _segmented_schedule(
    degrees: np.ndarray, segments: np.ndarray, chunk: int, per_thread_cost
) -> ScheduleStats:
    """Schedule ``len(segments)`` consecutive queues at once.

    Every queue is cut into chunks of ``chunk`` entries (thread blocks
    or warps) starting at its own first entry;
    ``per_thread_cost(degrees, chunk_starts)`` gives each chunk's
    per-thread cost.  An empty queue owns no chunk — ``reduceat`` would
    hand a start that is not strictly below the next one the *next*
    queue's first entry — and reports the empty schedule (0 edges,
    balance 1.0).
    """
    segments = np.asarray(segments, dtype=np.int64)
    if np.any(segments < 0) or int(segments.sum()) != degrees.size:
        raise ValueError("segments must be non-negative and sum to len(degrees)")
    if np.any(degrees < 0):
        raise ValueError("negative degree in queue")
    n_chunks = -(-segments // chunk)
    total = np.zeros(segments.size, dtype=np.int64)
    occupied = np.zeros(segments.size, dtype=np.int64)
    max_thread = np.zeros(segments.size, dtype=np.int64)
    filled = np.flatnonzero(segments)
    if filled.size:
        seg_start = np.cumsum(segments) - segments
        first_chunk = (np.cumsum(n_chunks) - n_chunks)[filled]
        # Entry index of every chunk: its queue's first entry plus
        # `chunk` times its position among that queue's chunks.
        n_filled = n_chunks[filled]
        within = np.arange(int(n_filled.sum()), dtype=np.int64) - np.repeat(
            first_chunk, n_filled
        )
        starts = np.repeat(seg_start[filled], n_filled) + within * chunk
        per_thread = per_thread_cost(degrees, starts)
        total[filled] = np.add.reduceat(degrees, seg_start[filled])
        occupied[filled] = np.add.reduceat(per_thread, first_chunk) * chunk
        max_thread[filled] = np.maximum.reduceat(per_thread, first_chunk)
    balance = np.ones(segments.size)
    np.divide(total, occupied, out=balance, where=occupied > 0)
    return ScheduleStats(
        total_edges=total,
        n_blocks=n_chunks,
        balance=np.maximum(balance, 1e-6),
        max_thread_edges=max_thread,
    )


def manhattan_schedule(
    degrees: np.ndarray, block_size: int = BLOCK_SIZE, segments=None
) -> ScheduleStats:
    """Model Alg. 6: per block, edges are strided evenly over threads.

    Within a block the prefix sum + binary search hands thread ``t``
    edges ``t, t + BS, t + 2 BS, ...`` of the block total, so the
    per-thread imbalance is at most one edge; across blocks, the last
    partial block and ragged totals create the only inefficiency.  The
    residual is tiny — the paper calls the overhead "near-negligible" —
    and this model shows exactly why.

    Vectorized: block totals come from one ``np.add.reduceat`` over the
    block boundaries instead of a per-block Python loop, so scheduling
    a million-vertex queue costs one segmented pass.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if segments is not None:
        return _segmented_schedule(
            degrees,
            segments,
            block_size,
            lambda d, starts: -(-np.add.reduceat(d, starts) // block_size),
        )
    if degrees.size == 0:
        return ScheduleStats(total_edges=0, n_blocks=0, balance=1.0, max_thread_edges=0)
    if np.any(degrees < 0):
        raise ValueError("negative degree in queue")
    starts = np.arange(0, degrees.size, block_size, dtype=np.int64)
    block_work = np.add.reduceat(degrees, starts)
    per_thread = -(-block_work // block_size)  # ceil per block
    total = int(block_work.sum())
    occupied = int(per_thread.sum()) * block_size
    balance = total / occupied if occupied else 1.0
    return ScheduleStats(
        total_edges=total,
        n_blocks=int(starts.size),
        balance=max(balance, 1e-6),
        max_thread_edges=int(per_thread.max()),
    )


def vertex_per_thread_balance(
    degrees: np.ndarray, warp_size: int = WARP_SIZE, segments=None
) -> ScheduleStats:
    """Model the naive kernel: thread ``t`` expands vertex ``t`` alone.

    A warp retires when its slowest lane finishes, so each warp costs
    ``warp_size * max(degree in warp)`` thread-cycles.  On power-law
    queues this collapses to the hub degree — the load imbalance the
    Manhattan Collapse exists to fix.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if segments is not None:
        return _segmented_schedule(
            degrees, segments, warp_size, np.maximum.reduceat
        )
    if degrees.size == 0:
        return ScheduleStats(total_edges=0, n_blocks=0, balance=1.0, max_thread_edges=0)
    if np.any(degrees < 0):
        raise ValueError("negative degree in queue")
    total = int(degrees.sum())
    pad = (-degrees.size) % warp_size
    padded = np.concatenate([degrees, np.zeros(pad, dtype=np.int64)])
    warps = padded.reshape(-1, warp_size)
    warp_max = warps.max(axis=1)
    occupied = int(warp_max.sum()) * warp_size
    balance = total / occupied if occupied else 1.0
    return ScheduleStats(
        total_edges=total,
        n_blocks=-(-degrees.size // warp_size),
        balance=max(balance, 1e-6),
        max_thread_edges=int(warp_max.max(initial=0)),
    )
