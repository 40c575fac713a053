"""Graph transforms: subgraphs and component extraction.

Extracting the giant component is the usual preprocessing for
traversal benchmarks (Graph500 roots must be sampled from it), built
on restricting to a vertex subset.  Both transforms return a new
:class:`~repro.graph.csr.Graph` plus the vertex mapping back to the
original ids.
"""

from __future__ import annotations

import numpy as np

from .csr import Graph

__all__ = ["induced_subgraph", "largest_component"]


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
