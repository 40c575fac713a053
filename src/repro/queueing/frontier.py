"""Vectorized CSR frontier expansion.

The CUDA code expands a queue of vertices into their edges with the
Local Manhattan Collapse (paper Alg. 6): a binary search in the prefix
sum of the queue's degrees hands every thread its edge — and with it
its *queue entry*.  The NumPy equivalent is a single gather built from
``repeat`` and ``arange``, one "edge-parallel" pass with no per-vertex
Python loop, and it returns that entry: per-edge operands are gathered
from queue-sized arrays (``operand[ex.entry]``), not rebuilt per edge.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

__all__ = ["Expansion", "expand_block"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


class Expansion(NamedTuple):
    """Edges of an expanded queue, in queue order: per edge its queue
    position ``entry``, target ``dst`` (``int64`` whatever the index
    array's dtype) and position ``edge_index`` in
    the block's ``indices`` / ``weights``.  ``queue`` (the rows as the
    caller named them) and ``edge_weights`` (the block's whole weight
    array, or ``None``) only feed :attr:`src` and :attr:`weights` —
    one edge-sized gather per read, so bind them once."""

    entry: np.ndarray
    dst: np.ndarray
    edge_index: np.ndarray
    queue: np.ndarray
    edge_weights: Optional[np.ndarray]

    @property
    def src(self) -> np.ndarray:
        return self.queue[self.entry]

    @property
    def weights(self) -> Optional[np.ndarray]:
        w = self.edge_weights
        return None if w is None else w[self.edge_index]


def expand_block(block, row_lids, degrees=None) -> Expansion:
    """Expand a :class:`~repro.graph.partition.twod.RankBlock` queue of
    row-vertex LIDs into their incident edges.  The LIDs stay the
    expansion's ``queue``, so ``src`` and ``dst`` are both in the
    block's LID space: ``dst`` is its stacked target less
    ``block.lid_base``, ``int64`` whatever the dtype of
    ``block.indices``.

    ``degrees`` are the rows' degrees, for a caller that already looked
    them up (to charge the kernel).
    """
    row_lids = np.asarray(row_lids, dtype=np.int64)
    rows = row_lids - block.localmap.row_offset
    indptr, base = block.indptr, block.lid_base
    row_ptr = indptr[rows]
    if degrees is None:
        degrees = indptr[rows + 1] - row_ptr
    elif np.shape(degrees) != row_lids.shape:
        raise ValueError(f"{np.shape(degrees)} degrees for a queue of {row_lids.shape}")
    ends = np.cumsum(degrees)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return Expansion(_EMPTY_I64, _EMPTY_I64, _EMPTY_I64, row_lids, block.weights)
    # A single repeat, of the queue-entry index: an entry's run starts
    # at indptr[row], shifted by its start in the output (cumsum-offset
    # trick), so the offset into `indices` is one more gather.
    entry = np.repeat(np.arange(row_lids.size, dtype=np.int64), degrees)
    offsets = row_ptr - (ends - degrees)
    edge_index = np.arange(total, dtype=np.int64) + offsets[entry]
    dst = block.indices[edge_index]
    if base or dst.dtype != np.int64:
        dst = np.subtract(dst, base, dtype=np.int64)
    return Expansion(entry, dst, edge_index, row_lids, block.weights)
