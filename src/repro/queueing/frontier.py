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

__all__ = ["Expansion", "expand_csr", "expand_block"]

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


def expand_csr(indptr, indices, rows, degrees=None, weights=None) -> Expansion:
    """Expand ``rows`` (row-local positions) into their incident edges.

    ``degrees`` are the rows' degrees, for a caller that already looked
    them up (to charge the kernel); ``weights`` the edge-weight array
    aligned with ``indices``, if any.
    """
    return _expand(indptr, indices, rows, degrees, weights, 0)


def _expand(indptr, indices, rows, degrees, weights, base: int) -> Expansion:
    """:func:`expand_csr` with ``base`` subtracted from every target,
    which comes out ``int64`` whatever the dtype of ``indices``."""
    rows = np.asarray(rows, dtype=np.int64)
    row_ptr = indptr[rows]
    if degrees is None:
        degrees = indptr[rows + 1] - row_ptr
    elif np.shape(degrees) != rows.shape:
        raise ValueError(f"{np.shape(degrees)} degrees for a queue of {rows.shape}")
    ends = np.cumsum(degrees)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return Expansion(_EMPTY_I64, _EMPTY_I64, _EMPTY_I64, rows, weights)
    # A single repeat, of the queue-entry index: an entry's run starts
    # at indptr[row], shifted by its start in the output (cumsum-offset
    # trick), so the offset into `indices` is one more gather.
    entry = np.repeat(np.arange(rows.size, dtype=np.int64), degrees)
    offsets = row_ptr - (ends - degrees)
    edge_index = np.arange(total, dtype=np.int64) + offsets[entry]
    dst = indices[edge_index]
    if base or dst.dtype != np.int64:
        dst = np.subtract(dst, base, dtype=np.int64)
    return Expansion(entry, dst, edge_index, rows, weights)


def expand_block(block, row_lids, degrees=None) -> Expansion:
    """Expand a :class:`~repro.graph.partition.twod.RankBlock` queue of
    row-vertex LIDs; they stay the expansion's ``queue``, so ``src``
    and ``dst`` are both in the block's LID space (its stacked targets
    less ``block.lid_base``)."""
    row_lids = np.asarray(row_lids, dtype=np.int64)
    rows = row_lids - block.localmap.row_offset
    ex = _expand(
        block.indptr, block.indices, rows, degrees, block.weights, block.lid_base
    )
    return ex._replace(queue=row_lids)
