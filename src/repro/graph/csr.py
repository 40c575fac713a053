"""Compressed sparse row graph container.

This is the in-memory form the paper builds on CPU before distribution
(paper §3.1-3.2): an adjacency array ``Adj`` and an offsets array
``Off``; the adjacencies of vertex ``v`` live in
``Adj[Off[v]:Off[v+1]]`` and its degree is ``Off[v+1] - Off[v]``.

Edge counts follow the paper's convention: ``M = len(Adj)`` is the
number of *stored directed* edges.  The paper treats all inputs as
undirected by symmetrizing the adjacency matrix (paper §5), which
:func:`Graph.from_edges` does by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["Graph", "index_dtype"]

VERTEX_DTYPE = np.int64
WEIGHT_DTYPE = np.float64


def index_dtype(n_ids: int, n_entries: int):
    """Dtype of an index array over ``n_ids`` ids with ``n_entries``
    entries: ``int32`` while ids and entry offsets fit, else ``int64``.

    The one width rule of every stored adjacency: ``Graph.indices``,
    the partition's stacked-LID ``indices`` and the pull kernel's CSR
    operand (SciPy converts wider index arrays on every product).
    """
    fits = max(n_ids, n_entries) <= np.iinfo(np.int32).max
    return np.int32 if fits else np.int64


@dataclass
class Graph:
    """A graph in CSR form.

    Attributes
    ----------
    indptr:
        Offsets array ``Off`` of length ``N + 1``.
    indices:
        Adjacency array ``Adj`` of length ``M``, in
        ``index_dtype(N, 0)`` (``int32`` below 2**31 vertices);
        ``indptr`` is always ``int64``.
    weights:
        Optional per-edge weights, aligned with ``indices``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=VERTEX_DTYPE)
        indices = np.asarray(self.indices)
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=WEIGHT_DTYPE)
            if self.weights.shape != indices.shape:
                raise ValueError(
                    f"weights length {self.weights.shape} does not match "
                    f"indices length {indices.shape}"
                )
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length N+1")
        if self.indptr[0] != 0 or self.indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        # checked before the narrowing cast, so no id can wrap into range
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_vertices):
            raise ValueError("adjacency targets out of range")
        self.indices = np.ascontiguousarray(
            indices, dtype=index_dtype(self.n_vertices, 0)
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Global vertex count ``N``."""
        return self.indptr.size - 1

    @property
    def n_edges(self) -> int:
        """Stored directed edge count ``M``."""
        return self.indices.size

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Adjacency view (not a copy) for vertex ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        n_vertices: int,
        weights: Optional[np.ndarray] = None,
        symmetrize: bool = True,
        remove_self_loops: bool = True,
    ) -> "Graph":
        """Build a CSR graph from an edge list.

        ``symmetrize=True`` mirrors the paper's treatment of inputs as
        undirected.  Duplicate edges are always merged, keeping the
        maximum weight (so symmetrization of a weighted digraph stays
        symmetric).

        Each edge becomes one int64 key ``src * n + dst``; one sort puts
        the keys in CSR order, so ``n * n`` must stay below ``2**63``.
        The targets are narrowed to :func:`index_dtype` once, from the
        sorted keys.
        """
        src = np.asarray(src, dtype=VERTEX_DTYPE)
        dst = np.asarray(dst, dtype=VERTEX_DTYPE)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if src.size and (
            min(src.min(), dst.min()) < 0
            or max(src.max(), dst.max()) >= n_vertices
        ):
            raise ValueError("edge endpoints out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=WEIGHT_DTYPE)
            if weights.shape != src.shape:
                raise ValueError("weights must align with edges")
        n = int(n_vertices)
        if n * n >= 2**63:
            raise ValueError(f"{n} vertices overflow the int64 edge key (n^2 >= 2^63)")

        if remove_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
            if weights is not None:
                weights = weights[keep]
        m = src.size
        key = np.empty(2 * m if symmetrize else m, dtype=VERTEX_DTYPE)
        np.multiply(src, n, out=key[:m])
        key[:m] += dst
        if symmetrize:
            np.multiply(dst, n, out=key[m:])
            key[m:] += src
            if weights is not None:
                weights = np.concatenate([weights, weights])
        del src, dst
        if weights is None:
            key.sort()
        else:
            # Stable, so duplicates meet reduceat in input order (which
            # decides between -0.0 and 0.0).
            order = np.argsort(key, kind="stable")
            key = key[order]
            weights = weights[order]
            del order
        if key.size:
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if weights is not None:
                weights = np.maximum.reduceat(weights, np.flatnonzero(first))
            key = key[first]
        indptr = np.searchsorted(key, np.arange(n + 1, dtype=VERTEX_DTYPE) * n)
        np.remainder(key, n, out=key)
        indices = key.astype(index_dtype(n, 0), copy=False)
        del key
        return cls(indptr=indptr, indices=indices, weights=weights)

    def to_scipy(self) -> sp.csr_matrix:
        """Export as a scipy CSR matrix (weights default to 1.0).

        The data array is a *copy* so callers may freely mutate the
        matrix's values (a common scipy idiom) without corrupting the
        graph's weights.  ``indices`` is *shared* while SciPy keeps its
        dtype (up to 2**31 stored edges): do not change the matrix's
        structure in place.
        """
        data = (
            self.weights.copy()
            if self.weights is not None
            else np.ones(self.n_edges, dtype=WEIGHT_DTYPE)
        )
        n = self.n_vertices
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def with_random_weights(self, seed: int = 0, low: float = 0.0, high: float = 1.0) -> "Graph":
        """Attach symmetric random edge weights (for MWM experiments).

        Weight of edge {u, v} is a hash-style function of the unordered
        pair, so both stored directions agree.
        """
        n = self.n_vertices
        src = np.repeat(np.arange(n, dtype=VERTEX_DTYPE), self.degrees())
        dst = self.indices
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        # SplitMix64-style mixing of the pair key for reproducible,
        # direction-independent weights.
        key = (
            lo.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + hi.astype(np.uint64)
            + np.uint64(seed)
        )
        key ^= key >> np.uint64(30)
        key *= np.uint64(0xBF58476D1CE4E5B9)
        key ^= key >> np.uint64(27)
        key *= np.uint64(0x94D049BB133111EB)
        key ^= key >> np.uint64(31)
        u = key.astype(np.float64) / float(2**64)
        return Graph(
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            weights=low + (high - low) * u,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        w = ", weighted" if self.is_weighted else ""
        return f"Graph(N={self.n_vertices}, M={self.n_edges}{w})"
