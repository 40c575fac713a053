"""Distributed greedy graph coloring (extension; Jones-Plassmann).

Jones-Plassmann luby-style coloring: every vertex gets a random (here:
hash-derived, deterministic) priority; each round, every uncolored
vertex that holds the highest priority among its uncolored neighbors
colors itself with the smallest color absent from its neighborhood.
Expected O(log n) rounds on bounded-degree graphs.

On the 2D engine this composes two of the paper's patterns per round:

* the local-maximum test is an element-wise MAX reduction over the
  neighborhood — a plain dense pull on a masked priority array;
* the smallest-absent-color choice needs the *set* of neighbor colors —
  a complex reduction, :func:`~repro.patterns.complex.complex_reduce`
  with a smallest-absent owner reduction where Label Propagation
  selects a mode.

Validated against a serial implementation of the identical rule and
against the proper-coloring invariant.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import Engine
from ..core.result import AlgorithmResult
from ..kernels import csr_pull
from ..patterns.complex import complex_reduce, rank_histograms
from ..patterns.dense import dense_pull
from .bfs import check_count

__all__ = ["greedy_coloring", "color_priorities", "is_proper_coloring"]

_UNCOLORED = -1.0

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def color_priorities(n: int, seed: int = 0) -> np.ndarray:
    """Deterministic pseudo-random vertex priorities (unique)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(n).astype(np.float64)


def is_proper_coloring(graph, colors: np.ndarray) -> bool:
    """No edge joins two equal colors, and every vertex is colored."""
    colors = np.asarray(colors)
    if np.any(colors < 0):
        return False
    src = np.repeat(np.arange(graph.n_vertices), graph.degrees())
    return not np.any(colors[src] == colors[graph.indices])


def greedy_coloring(
    engine: Engine, seed: int = 0, max_rounds: int | None = None
) -> AlgorithmResult:
    """Color the graph with Jones-Plassmann on the 2D engine.

    Returns colors in original vertex order, identical to
    :func:`repro.reference.serial.serial_jones_plassmann`.
    ``max_rounds`` bounds the rounds: ``None`` (until every vertex is
    colored) or an integer >= 1 — ``0``, a negative, a float or a bool
    raises ``ValueError`` (:func:`~repro.algorithms.bfs.check_count`).
    """
    if max_rounds is not None:
        max_rounds = check_count(max_rounds, "max_rounds")
    engine.reset_timers()
    fleet = engine.fleet
    prio_global = color_priorities(engine.partition.n_vertices, seed)

    engine.scatter_global("prio", prio_global)

    engine.alloc("color", np.float64, fill=_UNCOLORED)
    # each round's max uncolored-neighbour priority, rebuilt before it
    # is read: dead at every superstep boundary, so scratch
    maxp = engine.scratch("maxp")
    engine.charge_vertices(None, fleet.n_total)
    pull = fleet.csr()
    full_queue, rows_per_rank = fleet.full_queue()
    rows = np.flatnonzero(fleet.row_mask)

    rounds = 0
    while True:
        rounds += 1

        # ---- 1. max uncolored-neighbor priority (dense pull MAX) ------
        # One CSR pull over every rank's block; colored neighbors enter
        # as -inf, the identity of MAX.
        engine.charge_edges(
            None, full_queue, segments=rows_per_rank, cache_key="color.full"
        )
        uncolored_prio = np.where(
            fleet.stacked("color") < 0, fleet.stacked("prio"), -np.inf
        )
        maxp[...] = csr_pull(pull, uncolored_prio, "max")
        dense_pull(engine, maxp, op="max")

        # ---- 2. winners pick the smallest absent neighborhood color ---
        # Neighbor-color histograms of the candidate winners, reduced
        # by the 2.5D pattern exactly as LP's modes are.  Every winner
        # was uncolored (-1) and takes a color >= 0, so the changed rows
        # are exactly the newly colored vertices.
        _, n_colored = complex_reduce(
            engine, "color", _winner_histograms(engine, rows, maxp), _smallest_absent
        )

        engine.superstep_boundary("coloring")
        if n_colored == 0:
            break
        if max_rounds is not None and rounds >= max_rounds:
            break

    values = engine.gather("color").astype(np.int64)
    return AlgorithmResult(
        values=values,
        timings=engine.timing_report(),
        iterations=rounds,
        counters=engine.counters.summary(),
        extra={"n_colors": int(values.max(initial=-1)) + 1},
    )


def _winner_histograms(
    engine: Engine, rows: np.ndarray, maxp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every rank's neighbor-color histogram of its winners — the
    uncolored ``rows`` holding the highest uncolored priority around
    them (``maxp``) — as rank-major triples and per-rank counts: each
    rank's colored-neighbor triples, then a sentinel color ``-1`` for
    each of its winners without a colored neighbor, so owners see them
    too."""
    fleet = engine.fleet
    color, prio = fleet.stacked("color"), fleet.stacked("prio")
    winners = rows[(color[rows] < 0) & (prio[rows] >= maxp[rows])]
    degrees = fleet.row_degrees(winners)
    engine.charge_edges(None, degrees, segments=fleet.counts(winners))
    src, colors = [_EMPTY_I64], [np.empty(0)]
    for _, ex in fleet.expand(winners, degrees):
        colored = color[ex.dst] >= 0
        src.append(ex.src[colored])
        colors.append(color[ex.dst[colored]])
    src = np.concatenate(src)
    tri, tri_counts = rank_histograms(fleet, src, np.concatenate(colors))
    lonely = winners[~np.isin(winners, src)]
    sentinel, sentinel_counts = rank_histograms(
        fleet, lonely, np.full(lonely.size, -1.0)
    )
    # each rank's triples, then its sentinels
    ranks = np.concatenate([fleet.ranks(tri_counts), fleet.ranks(sentinel_counts)])
    order = np.argsort(ranks, kind="stable")
    return np.concatenate([tri, sentinel]).take(order), tri_counts + sentinel_counts


def _smallest_absent(merged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per gid, the smallest non-negative color absent from the merged
    neighbor-color histogram (sentinel -1 entries mark lonely winners)."""
    if merged.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    order = np.lexsort((merged["label"], merged["gid"]))
    g = merged["gid"][order]
    lab = merged["label"][order].astype(np.int64)
    uniq_g, starts = np.unique(g, return_index=True)
    chosen = np.empty(uniq_g.size, dtype=np.float64)
    bounds = np.append(starts, g.size)
    for i in range(uniq_g.size):
        used = lab[bounds[i] : bounds[i + 1]]
        used = used[used >= 0]
        c = 0
        for u in used:  # used is sorted ascending
            if u == c:
                c += 1
            elif u > c:
                break
        chosen[i] = c
    return uniq_g, chosen
