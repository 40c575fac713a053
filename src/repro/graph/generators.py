"""Synthetic graph generators.

Provides the paper's two synthetic families (Table 4) plus a Chung-Lu
power-law generator used to build scaled stand-ins for the real
datasets:

* :func:`rmat` — Graph500 R-MAT with the standard parameters
  ``edgefactor=16, A=0.57, B=0.19, C=0.19``.
* :func:`erdos_renyi_gnm` — Erdos-Renyi ``G(n, m)``.
* :func:`chung_lu_powerlaw` — expected-degree model with a power-law
  degree sequence, matching the heavy skew of the web/social inputs.

All generators are fully vectorized and deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from .csr import Graph

__all__ = [
    "rmat",
    "rmat_edges",
    "erdos_renyi_gnm",
    "chung_lu_powerlaw",
]


def rmat_edges(
    scale: int,
    edgefactor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Generate raw R-MAT edge endpoints (Graph500 kernel 0).

    Returns ``(src, dst, n)`` with ``n = 2**scale`` and
    ``edgefactor * n`` edge slots before any dedup/self-loop cleanup.
    Each of the ``scale`` bit levels picks an adjacency-matrix quadrant
    with probabilities ``(a, b, c, d)``; the recursion is unrolled into
    one vectorized pass per level.
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    d = 1.0 - a - b - c
    if d < -1e-12 or min(a, b, c) < 0:
        raise ValueError("invalid R-MAT parameters")
    n = 1 << scale
    m = edgefactor * n
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    ab = a + b
    a_norm = a / ab if ab > 0 else 0.5
    c_norm = c / (1.0 - ab) if ab < 1.0 else 0.5
    for _ in range(scale):
        src <<= 1
        dst <<= 1
        r_bit = rng.random(m)
        c_bit = rng.random(m)
        src_bit = r_bit > ab
        # The dst bit is conditioned on the src bit (Graph500 kernel):
        # given src_bit=0, P(dst=1) = b/(a+b); given src_bit=1,
        # P(dst=1) = d/(c+d).
        dst_bit = ((c_bit > c_norm) & src_bit) | ((c_bit > a_norm) & ~src_bit)
        src |= src_bit
        dst |= dst_bit
    return src, dst, n


def rmat(
    scale: int,
    edgefactor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    symmetrize: bool = True,
    shuffle: bool = True,
) -> Graph:
    """Graph500-parameter R-MAT graph as a deduplicated CSR ``Graph``.

    ``shuffle`` applies the random vertex relabeling the Graph500
    specification mandates after generation.  Without it, R-MAT's
    hubbiness correlates with the ID bit pattern (a vertex is likelier
    to be a hub for every zero bit, including the low ones), which
    would systematically bias any modulo-based distribution such as the
    paper's striping.
    """
    src, dst, n = rmat_edges(scale, edgefactor, a, b, c, seed)
    if shuffle:
        relabel = np.random.default_rng(seed + 0x5EED).permutation(n).astype(np.int64)
        src, dst = relabel[src], relabel[dst]
    return Graph.from_edges(src, dst, n, symmetrize=symmetrize)


def erdos_renyi_gnm(
    n: int, m: int, seed: int = 0, symmetrize: bool = True
) -> Graph:
    """Erdos-Renyi ``G(n, m)``: ``m`` uniformly random edge slots.

    This is the paper's RAND family: same order and size as the R-MAT
    inputs but with a flat degree distribution.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    return Graph.from_edges(src, dst, n, symmetrize=symmetrize)


def chung_lu_powerlaw(
    n: int,
    m: int,
    gamma: float = 2.2,
    min_degree: float = 1.0,
    seed: int = 0,
) -> Graph:
    """Chung-Lu expected-degree graph with power-law weights.

    Vertex ``i`` gets expected-degree weight ``w_i ~ (i + i0)^(-1/(gamma-1))``
    (normalized so that the expected stored edge count is ``~2 m`` after
    symmetrization); endpoints of each of the ``m`` undirected edge
    slots are drawn independently with probability proportional to the
    weights.  This reproduces the skewed-degree behaviour of the
    real-world inputs (twitter, friendster, the web crawls) that drives
    the paper's load-balance results.
    """
    if gamma <= 1.0:
        raise ValueError("gamma must be > 1")
    rng = np.random.default_rng(seed)
    i0 = n * (min_degree / max(n, 2)) ** (gamma - 1.0) + 1.0
    ranks = np.arange(n, dtype=np.float64)
    w = (ranks + i0) ** (-1.0 / (gamma - 1.0))
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    src = np.searchsorted(cdf, rng.random(m))
    dst = np.searchsorted(cdf, rng.random(m))
    # Shuffle identities so high-degree vertices are not the lowest IDs;
    # the paper notes real graphs arrive in BFS/DFS-like orders, and the
    # striped distribution must not get the hubs for free.
    relabel = rng.permutation(n).astype(np.int64)
    return Graph.from_edges(relabel[src], relabel[dst], n, symmetrize=True)


def web_graph(
    n: int,
    m: int,
    gamma: float = 2.0,
    chain_fraction: float = 0.05,
    chain_length: int = 40,
    seed: int = 0,
) -> Graph:
    """Web-crawl-like stand-in: power-law core plus pendant chains.

    Real crawl graphs (ClueWeb, gsh, WDC) combine a heavy-tailed core
    with long pendant paths (redirect/pagination chains), giving
    iterative algorithms their characteristic long convergence tail —
    the regime the paper's vertex queues and dense-to-sparse switching
    are designed for.  ``chain_fraction`` of the vertices are organized
    into chains of ``chain_length`` hanging off random core vertices.
    """
    n_chain = int(n * chain_fraction)
    n_core = n - n_chain
    if n_core < 2:
        raise ValueError("chain_fraction leaves no core")
    core = chung_lu_powerlaw(n_core, m, gamma=gamma, seed=seed)
    rng = np.random.default_rng(seed + 1)
    deg = np.diff(core.indptr)
    src = np.repeat(np.arange(n_core, dtype=np.int64), deg)
    dst = core.indices.copy()
    extra_src, extra_dst = [], []
    chain_ids = np.arange(n_core, n, dtype=np.int64)
    pos = 0
    while pos < n_chain:
        length = min(chain_length, n_chain - pos)
        chain = chain_ids[pos : pos + length]
        anchor = rng.integers(0, n_core)
        extra_src.append(np.array([anchor], dtype=np.int64))
        extra_dst.append(chain[:1])
        if length > 1:
            extra_src.append(chain[:-1])
            extra_dst.append(chain[1:])
        pos += length
    all_src = np.concatenate([src] + extra_src)
    all_dst = np.concatenate([dst] + extra_dst)
    return Graph.from_edges(all_src, all_dst, n, symmetrize=True)
