"""The four workloads: inputs, op lists, verification, work counts.

Everything here goes through the frozen public surface listed in the
README.  ``--seed`` drives the R-MAT generator, the edge weights and
the benchmark's own root sampling; the program only ever receives the
generated graph and the sampled vertex ids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse.csgraph as csgraph

from repro import Engine
from repro import graph as rgraph  # attribute access at call time, so spans see rmat
from repro.algorithms import bfs, connected_components, pagerank
from repro.algorithms.batch import bfs_batch, sssp_batch
from repro.comm.grid import Grid2D
from repro.faults import CheckpointManager, HealthMonitor, IntegrityLedger
from repro.reference import serial

__all__ = ["SPECS", "Spec", "Op", "set_up", "digest"]


@dataclass
class Op:
    """One public algorithm call plus what is needed to judge it."""

    label: str
    call: Callable[[Engine], object]
    #: ``verify(graph, result) -> bool`` against ``repro.reference.serial``
    verify: Callable[[object, object], bool]
    #: edges the verified answer accounts for (input + answer only)
    work_edges: Callable[[object, object], int]


def set_up(spec: "Spec", seed: int, scale: Optional[int] = None, hooks: Optional[bool] = None):
    """Generate the input and build the engine — the timed set-up.

    ``scale`` overrides the workload's size (smoke test only);
    ``hooks=False`` builds the same engine with nothing attached (the
    detached side of the hook-overhead A/B).
    """
    graph = rgraph.rmat(scale if scale is not None else spec.scale, seed=seed)
    if spec.weighted:
        graph = graph.with_random_weights(seed=seed)
    engine = Engine(
        graph, grid=Grid2D(R=spec.R, C=spec.C), executor="serial", overlap=False
    )
    if spec.hooks if hooks is None else hooks:
        engine.attach_checkpoints(CheckpointManager(interval=2))
        engine.attach_integrity(IntegrityLedger(interval=1))
        engine.attach_health(HealthMonitor())
    return graph, engine


def sample_roots(graph, k: int, seed: int) -> list[int]:
    """``k`` distinct vertices drawn uniformly from the giant
    component's degree >= 1 vertices (root 0 of an R-MAT graph is
    routinely isolated, which is what the legacy protocol timed)."""
    _, labels = csgraph.connected_components(graph.to_scipy(), directed=False)
    giant = np.argmax(np.bincount(labels))
    candidates = np.flatnonzero((labels == giant) & (graph.degrees() > 0))
    rng = np.random.default_rng([seed, 0xB5])
    return [int(v) for v in rng.choice(candidates, size=k, replace=False)]


# -- per-kind ops ----------------------------------------------------------
def _reached_degree(graph, levels: np.ndarray) -> int:
    return int(graph.degrees()[levels >= 0].sum())


def _bfs_op(root: int) -> Op:
    def verify(graph, res) -> bool:
        return np.array_equal(
            res.extra["levels"], serial.bfs_levels(graph, root)
        ) and serial.bfs_parents_valid(graph, root, res.values)

    return Op(
        f"bfs({root})",
        lambda engine: bfs(engine, root),
        verify,
        lambda graph, res: _reached_degree(graph, res.extra["levels"]),
    )


def _bfs_batch_op(roots: list[int]) -> Op:
    def verify(graph, res) -> bool:
        return all(
            np.array_equal(res.extra["levels"][:, j], serial.bfs_levels(graph, r))
            and serial.bfs_parents_valid(graph, r, res.values[:, j])
            for j, r in enumerate(roots)
        )

    return Op(
        f"bfs_batch(k={len(roots)})",
        lambda engine: bfs_batch(engine, roots),
        verify,
        lambda graph, res: sum(
            _reached_degree(graph, res.extra["levels"][:, j])
            for j in range(len(roots))
        ),
    )


def _pagerank_op(iterations: int) -> Op:
    return Op(
        f"pagerank({iterations})",
        lambda engine: pagerank(engine, iterations=iterations),
        lambda graph, res: float(
            np.abs(res.values - serial.pagerank(graph, iterations)).max()
        )
        <= 1e-9,
        lambda graph, res: graph.n_edges * iterations,
    )


def _cc_op() -> Op:
    return Op(
        "connected_components",
        connected_components,
        lambda graph, res: np.array_equal(
            serial.canonical_labels(res.values),
            serial.canonical_labels(serial.connected_components(graph)),
        ),
        lambda graph, res: graph.n_edges,
    )


def _sssp_batch_op(sources: list[int]) -> Op:
    return Op(
        f"sssp_batch(k={len(sources)})",
        lambda engine: sssp_batch(engine, sources),
        lambda graph, res: all(
            np.array_equal(res.values[:, j], serial.sssp_distances(graph, s))
            for j, s in enumerate(sources)
        ),
        # one full relaxation sweep per lane is the least any answer costs
        lambda graph, res: graph.n_edges * len(sources),
    )


@dataclass(frozen=True)
class Spec:
    name: str
    scale: int
    R: int
    C: int
    #: ``ops(graph, seed)`` -> the fixed, ordered op list of one pass
    ops: Callable[[object, int], list]
    weighted: bool = False
    hooks: bool = False


def _pr_kernel(graph, seed):
    return [_pagerank_op(20)]


def _bfs_scaleout(graph, seed):
    return [_bfs_op(r) for r in sample_roots(graph, 16, seed)]


def _lanes_mixed(graph, seed):
    r = sample_roots(graph, 20, seed)
    return [
        _bfs_batch_op(r[0:8]),
        _bfs_batch_op(r[8:16]),
        _cc_op(),
        _cc_op(),
        _sssp_batch_op(r[16:20]),
    ]


def _guarded_boundary(graph, seed):
    return [_cc_op(), _pagerank_op(10)] + [
        _bfs_op(r) for r in sample_roots(graph, 4, seed)
    ]


SPECS = {
    s.name: s
    for s in (
        Spec("pr_kernel", scale=17, R=2, C=2, ops=_pr_kernel),
        Spec("bfs_scaleout", scale=14, R=16, C=16, ops=_bfs_scaleout),
        # 8x4, not 4x8: bfs_batch raises IndexError on R < C grids (README,
        # "not measured, and why").
        Spec("lanes_mixed", scale=15, R=8, C=4, ops=_lanes_mixed, weighted=True),
        Spec("guarded_boundary", scale=15, R=4, C=4, ops=_guarded_boundary, hooks=True),
    )
}


def digest(res) -> str:
    """SHA-256 over an op's ``values`` (and BFS ``levels``)."""
    h = hashlib.sha256(np.ascontiguousarray(res.values).tobytes())
    levels = res.extra.get("levels")
    if levels is not None:
        h.update(np.ascontiguousarray(levels).tobytes())
    return h.hexdigest()
