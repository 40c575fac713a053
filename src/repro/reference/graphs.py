"""Small deterministic graphs whose answers can be checked by hand."""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph

__all__ = ["path_graph", "star_graph", "grid_graph"]


def path_graph(n: int) -> Graph:
    """Undirected path ``0 - 1 - ... - n-1``."""
    src = np.arange(n - 1, dtype=np.int64)
    return Graph.from_edges(src, src + 1, n)


def star_graph(n: int) -> Graph:
    """Star with center 0 and ``n - 1`` leaves."""
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    return Graph.from_edges(src, dst, n)


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D lattice, useful for hand-checkable traversals."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()])
    src = np.concatenate([right[0], down[0]])
    dst = np.concatenate([right[1], down[1]])
    return Graph.from_edges(src, dst, rows * cols)
