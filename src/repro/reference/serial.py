"""Single-rank reference implementations (ground truth for validation).

Every distributed algorithm in :mod:`repro.algorithms` must produce
results identical (or equivalent, for algorithms whose output is only
unique up to representative choice) to these simple serial versions,
independent of grid shape, distribution, communication mode, or queue
usage.  The integration and property tests enforce that invariant.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..algorithms.coloring import color_priorities
from ..graph.csr import Graph

__all__ = [
    "connected_components",
    "canonical_labels",
    "pagerank",
    "bfs_levels",
    "bfs_parents_valid",
    "label_propagation",
    "matching_is_valid",
    "matching_weight",
    "locally_dominant_matching",
    "initial_parents",
    "pointer_jumping_roots",
    "serial_jones_plassmann",
    "sssp_distances",
    "triangle_count",
]


def connected_components(graph: Graph) -> np.ndarray:
    """Component ids via scipy (weak connectivity)."""
    n, labels = csgraph.connected_components(
        graph.to_scipy(), directed=False, return_labels=True
    )
    return labels.astype(np.int64)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel components to their minimum member vertex id.

    Makes two labelings comparable even when their representatives
    differ.
    """
    labels = np.asarray(labels)
    n = labels.size
    if n == 0:
        return labels.astype(np.int64)
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_labels[1:] != sorted_labels[:-1]
    group_id = np.cumsum(first) - 1
    # min vertex id in each group
    rep = np.full(group_id[-1] + 1, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(rep, group_id, order)
    out = np.empty(n, dtype=np.int64)
    out[order] = rep[group_id]
    return out


def pagerank(
    graph: Graph,
    iterations: int = 20,
    damping: float = 0.85,
    personalization=None,
    weighted: bool = False,
) -> np.ndarray:
    """Synchronous PageRank, the formulation the paper benchmarks.

    Dangling mass is redistributed uniformly (or by the teleport
    vector) each iteration; degrees are the symmetrized out-degrees,
    weighted when ``weighted`` is set.
    """
    n = graph.n_vertices
    mat = graph.to_scipy()
    if not weighted:
        mat.data[:] = 1.0
    deg = np.asarray(mat.sum(axis=1)).ravel()
    inv_deg = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    if personalization is not None:
        tele = np.asarray(personalization, dtype=np.float64)
        tele = tele / tele.sum()
    else:
        tele = np.full(n, 1.0 / n)
    pr = np.full(n, 1.0 / n)
    for _ in range(iterations):
        contrib = pr * inv_deg
        gathered = mat.T @ contrib  # symmetric, but keep the pull form
        dangling = pr[deg == 0].sum()
        pr = (1.0 - damping) * tele + damping * (gathered + dangling * tele)
    return pr


def bfs_levels(graph: Graph, root: int) -> np.ndarray:
    """BFS depth of every vertex from ``root`` (-1 if unreachable)."""
    n = graph.n_vertices
    levels = np.full(n, -1, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    indptr, indices = graph.indptr, graph.indices
    while frontier.size:
        depth += 1
        degs = indptr[frontier + 1] - indptr[frontier]
        total = int(degs.sum())
        if total == 0:
            break
        starts = np.cumsum(degs) - degs
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(starts, degs)
            + np.repeat(indptr[frontier], degs)
        )
        nbrs = indices[pos]
        fresh = np.unique(nbrs[levels[nbrs] < 0])
        levels[fresh] = depth
        frontier = fresh
    return levels


def bfs_parents_valid(graph: Graph, root: int, parents: np.ndarray) -> bool:
    """Validate a BFS parent array (Graph500-style check).

    Parents are valid iff: the root is its own parent; exactly the
    reachable vertices have parents; every parent edge exists; and
    parent levels are exactly one smaller.
    """
    parents = np.asarray(parents, dtype=np.int64)
    levels = bfs_levels(graph, root)
    reachable = levels >= 0
    if parents[root] != root:
        return False
    has_parent = parents >= 0
    if not np.array_equal(has_parent, reachable):
        return False
    verts = np.flatnonzero(reachable)
    verts = verts[verts != root]
    for v in verts:
        p = parents[v]
        if levels[p] != levels[v] - 1:
            return False
        if v not in graph.neighbors(p):
            return False
    return True


def label_propagation(
    graph: Graph, iterations: int = 20
) -> np.ndarray:
    """Synchronous label propagation with deterministic tie-breaking.

    Every vertex starts with its own id; each iteration every vertex
    adopts the most frequent label among its neighbors, ties broken by
    the smallest label, keeping its current label only if no neighbor
    exists.  This deterministic synchronous formulation is what the
    distributed 2.5D implementation must match exactly.
    """
    n = graph.n_vertices
    labels = np.arange(n, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    degs = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), degs)
    for _ in range(iterations):
        nbr_labels = labels[indices]
        # Mode per vertex: count (src, label) pairs, pick max count with
        # min label on ties.
        order = np.lexsort((nbr_labels, src))
        s, lab = src[order], nbr_labels[order]
        if s.size == 0:
            break
        change = np.empty(s.size, dtype=bool)
        change[0] = True
        change[1:] = (s[1:] != s[:-1]) | (lab[1:] != lab[:-1])
        group = np.cumsum(change) - 1
        counts = np.bincount(group)
        g_src = s[change]
        g_lab = lab[change]
        # For each vertex pick the group with max count; ties -> min
        # label.  Sort groups by (src, -count, label).
        sel = np.lexsort((g_lab, -counts, g_src))
        first_per_src = np.ones(sel.size, dtype=bool)
        srcs_sorted = g_src[sel]
        first_per_src[1:] = srcs_sorted[1:] != srcs_sorted[:-1]
        winners = sel[first_per_src]
        new_labels = labels.copy()
        new_labels[g_src[winners]] = g_lab[winners]
        labels = new_labels
    return labels


def _edge_priority(weights: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Total order on incident edges used by matching tie-breaks.

    Higher weight wins; ties broken by the larger neighbor id (an
    arbitrary but globally consistent rule both serial and distributed
    implementations share).
    """
    return np.lexsort((dst, weights))  # ascending; take last for best


def locally_dominant_matching(graph: Graph) -> np.ndarray:
    """Preis-style locally-dominant 1/2-approximate max weight matching.

    Returns ``mate`` with ``mate[v] = u`` for matched pairs and ``-1``
    for unmatched vertices.  Deterministic: each vertex points along
    its heaviest available incident edge (ties to the larger neighbor
    id); mutually-pointing pairs commit, and the process repeats on the
    remainder.
    """
    if not graph.is_weighted:
        raise ValueError("matching needs an edge-weighted graph")
    n = graph.n_vertices
    mate = np.full(n, -1, dtype=np.int64)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    alive = np.ones(n, dtype=bool)

    while True:
        # Pointer selection for every unmatched vertex.
        pointer = np.full(n, -1, dtype=np.int64)
        for v in np.flatnonzero(alive):
            nbrs = indices[indptr[v] : indptr[v + 1]]
            w = weights[indptr[v] : indptr[v + 1]]
            ok = alive[nbrs] & (mate[nbrs] < 0)
            if not ok.any():
                alive[v] = False
                continue
            nbrs, w = nbrs[ok], w[ok]
            best = np.lexsort((nbrs, w))[-1]
            pointer[v] = nbrs[best]
        cand = np.flatnonzero(pointer >= 0)
        mutual = cand[pointer[pointer[cand]] == cand]
        if mutual.size == 0:
            break
        mate[mutual] = pointer[mutual]
        alive[mutual] = False
    return mate


def matching_is_valid(graph: Graph, mate: np.ndarray) -> bool:
    """Check symmetry and edge existence of a matching."""
    mate = np.asarray(mate, dtype=np.int64)
    for v in np.flatnonzero(mate >= 0):
        u = mate[v]
        if mate[u] != v or u == v:
            return False
        if v not in graph.neighbors(u):
            return False
    return True


def matching_weight(graph: Graph, mate: np.ndarray) -> float:
    """Total weight of a matching (each pair counted once)."""
    if not graph.is_weighted:
        raise ValueError("matching needs an edge-weighted graph")
    total = 0.0
    for v in np.flatnonzero(mate >= 0):
        u = mate[v]
        if v < u:
            nbrs = graph.neighbors(v)
            w = graph.edge_weights(v)
            total += float(w[np.flatnonzero(nbrs == u)[0]])
    return total


def sssp_distances(graph: Graph, root: int) -> np.ndarray:
    """Shortest path distances via scipy's Dijkstra (ground truth for
    the distributed Bellman-Ford)."""
    if not graph.is_weighted:
        raise ValueError("sssp needs an edge-weighted graph")
    return csgraph.dijkstra(graph.to_scipy(), directed=False, indices=root)


def triangle_count(graph: Graph) -> int:
    """Triangle count via the dense algebraic identity."""
    mat = graph.to_scipy()
    mat.data[:] = 1.0
    return int(round((mat @ mat).multiply(mat).sum() / 6.0))


def initial_parents(graph: Graph) -> np.ndarray:
    """The serial form of the deterministic initial forest.

    ``parent[v] = min(neighbors)`` when that minimum is below ``v``,
    else ``v`` (a root): the rule the distributed pointer jumping
    applies before its first jump.
    """
    n = graph.n_vertices
    parents = np.arange(n, dtype=np.int64)
    src = np.repeat(parents, np.diff(graph.indptr))
    if src.size:
        best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, src, graph.indices)
        take = best < parents
        parents[take] = best[take]
    return parents


def pointer_jumping_roots(parents: np.ndarray) -> np.ndarray:
    """Root of every vertex in a pointer forest (serial chase).

    ``parents[v] == v`` marks a root.  Used to validate the distributed
    packet-swapping pointer-jumping implementation.
    """
    parents = np.asarray(parents, dtype=np.int64)
    roots = parents.copy()
    while True:
        nxt = roots[roots]
        if np.array_equal(nxt, roots):
            return roots
        roots = nxt


def serial_jones_plassmann(graph: Graph, seed: int = 0) -> np.ndarray:
    """Jones-Plassmann coloring executing the distributed
    :func:`~repro.algorithms.coloring.greedy_coloring`'s synchronous
    rule one vertex at a time."""
    n = graph.n_vertices
    prio = color_priorities(n, seed)
    colors = np.full(n, -1, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    while np.any(colors < 0):
        new_colors = colors.copy()
        for v in np.flatnonzero(colors < 0):
            nbrs = indices[indptr[v] : indptr[v + 1]]
            unc = nbrs[colors[nbrs] < 0]
            if unc.size and prio[unc].max() > prio[v]:
                continue  # a higher-priority uncolored neighbor waits
            used = set(colors[nbrs][colors[nbrs] >= 0].tolist())
            c = 0
            while c in used:
                c += 1
            new_colors[v] = c
        colors = new_colors
    return colors
