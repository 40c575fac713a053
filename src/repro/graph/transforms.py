"""Graph transforms: subgraphs, component extraction, degree filters.

Utilities a downstream user needs between loading data and running
algorithms: extracting the giant component (the usual preprocessing for
traversal benchmarks — Graph500 roots must be sampled from it),
restricting to a vertex subset, peeling to a k-core subgraph, and
degree-capping heavy hubs.  All transforms return a new
:class:`~repro.graph.csr.Graph` plus the vertex mapping back to the
original ids.
"""

from __future__ import annotations


import numpy as np

from .csr import Graph

__all__ = [
    "induced_subgraph",
    "largest_component",
    "kcore_subgraph",
    "cap_degrees",
]


def induced_subgraph(
    graph: Graph, vertices: np.ndarray
) -> tuple[Graph, np.ndarray]:
    """The subgraph induced by ``vertices``.

    Returns ``(subgraph, keep)`` where ``keep[i]`` is the original id
    of the subgraph's vertex ``i`` (sorted ascending).
    """
    keep = np.unique(np.asarray(vertices, dtype=np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= graph.n_vertices):
        raise ValueError("subgraph vertices out of range")
    mask = np.zeros(graph.n_vertices, dtype=bool)
    mask[keep] = True
    new_id = np.cumsum(mask) - 1  # valid only where mask

    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), graph.degrees())
    dst = graph.indices
    sel = mask[src] & mask[dst]
    w = graph.weights[sel] if graph.is_weighted else None
    sub = Graph.from_edges(
        new_id[src[sel]],
        new_id[dst[sel]],
        int(keep.size),
        weights=w,
        symmetrize=False,  # already symmetric; keep both directions
        remove_self_loops=False,
    )
    return sub, keep


def largest_component(graph: Graph) -> tuple[Graph, np.ndarray]:
    """The giant weakly-connected component.

    The standard preprocessing before traversal benchmarks (paper-style
    BFS roots must be reachable).  Returns the component subgraph and
    the original ids of its vertices.
    """
    from ..reference.serial import connected_components

    labels = connected_components(graph)
    if labels.size == 0:
        return graph, np.empty(0, dtype=np.int64)
    sizes = np.bincount(labels)
    giant = int(np.argmax(sizes))
    return induced_subgraph(graph, np.flatnonzero(labels == giant))


def kcore_subgraph(graph: Graph, k: int) -> tuple[Graph, np.ndarray]:
    """The maximal subgraph where every vertex has degree >= k.

    Serial peeling (the distributed core *numbers* live in
    ``repro.algorithms.kcore``; this transform materializes one core's
    subgraph for further processing).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    alive = np.ones(graph.n_vertices, dtype=bool)
    deg = graph.degrees().copy()
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), graph.degrees())
    dst = graph.indices
    while True:
        drop = np.flatnonzero(alive & (deg < k))
        if drop.size == 0:
            break
        alive[drop] = False
        affected = dst[np.isin(src, drop) & alive[dst]]
        if affected.size:
            dec = np.bincount(affected, minlength=graph.n_vertices)
            deg -= dec
        deg[drop] = 0
    return induced_subgraph(graph, np.flatnonzero(alive))


def cap_degrees(
    graph: Graph, max_degree: int, seed: int = 0
) -> Graph:
    """Randomly sparsify hubs down to ``max_degree`` neighbors.

    A common preprocessing for memory-constrained runs: each vertex
    keeps a uniform sample of its adjacency; the result is
    re-symmetrized so it remains a valid undirected graph.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    rng = np.random.default_rng(seed)
    keep_idx = []
    indptr = graph.indptr
    for v in np.flatnonzero(graph.degrees() > max_degree):
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        keep_idx.append(rng.choice(np.arange(lo, hi), max_degree, replace=False))
    over = np.zeros(graph.n_edges, dtype=bool)
    big = np.flatnonzero(graph.degrees() > max_degree)
    for v in big:
        over[indptr[v] : indptr[v + 1]] = True
    keep = ~over
    if keep_idx:
        keep[np.concatenate(keep_idx)] = True
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), graph.degrees())
    w = graph.weights[keep] if graph.is_weighted else None
    return Graph.from_edges(
        src[keep], graph.indices[keep], graph.n_vertices, weights=w, symmetrize=True
    )
