"""The SpMV comparator and triangle counting on inputs that leave ranks
with empty windows and empty slices, against ``reference/serial.py``.

Every input below starves some rank: fewer vertices than ranks (a
rank's row or column window is empty), a root with no edge (its slice
of the masked SpMV expands nothing), a graph with no edges at all, and
the 1 x p, p x 1 and 3 x 5 grids whose groups have one member on one
axis or windows of unequal length.  Triangle counting needs a square
grid and runs on the square ones only.

The settings of an engine, its boundary hooks and its recovery are
held to their types too: a count that is a float or a bool, an
``overlap`` that is not a bool, and a rate, latency or threshold that
is not a finite real in its range each raise a ``ValueError`` naming
the parameter — before, each was coerced or ran (``interval=2.5``
saved at supersteps 5, 10, …; ``overlap="no"`` ran overlapped;
``memory_scale=0`` turned every capacity check off;
``checkpoint_bw=0`` charged no drain; ``hash_bw=0`` divided by zero at
the first verified boundary).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import triangle_count
from repro.baselines import spmv_bfs, spmv_cc
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.faults import CheckpointManager, HealthMonitor, IntegrityLedger, Recovery
from repro.graph import Graph, rmat
from repro.reference import serial

#: name -> (graph, BFS root)
GRAPHS = {
    "n<p": (rmat(2, seed=1), 1),
    # vertex 4 has no edge
    "isolated-root": (Graph.from_edges([0, 1, 2, 5], [1, 2, 0, 6], 8), 4),
    "no-edges": (Graph.from_edges([], [], 12), 3),
    # vertex 9 has no edge either
    "rmat": (rmat(7, seed=3), 9),
}

#: (R, C)
GRIDS = [(2, 2), (4, 4), (1, 4), (4, 1), (3, 5)]

CASES = [
    pytest.param(name, R, C, id=f"{name}-{R}x{C}") for name in GRAPHS for R, C in GRIDS
]
SQUARE = [case for case in CASES if case.values[1] == case.values[2]]


def _engine(name, R, C) -> Engine:
    return Engine(GRAPHS[name][0], grid=Grid2D(R=R, C=C))


@pytest.mark.parametrize("name, R, C", CASES)
def test_spmv_bfs_levels_are_serial(name, R, C):
    graph, root = GRAPHS[name]
    res = spmv_bfs(_engine(name, R, C), root)
    assert np.array_equal(res.values, serial.bfs_levels(graph, root))


@pytest.mark.parametrize("name, R, C", CASES)
def test_spmv_cc_labels_are_serial(name, R, C):
    graph, _ = GRAPHS[name]
    res = spmv_cc(_engine(name, R, C))
    want = serial.canonical_labels(serial.connected_components(graph))
    assert np.array_equal(res.values, want)


@pytest.mark.parametrize("name, R, C", SQUARE)
def test_triangle_count_is_serial(name, R, C):
    graph, _ = GRAPHS[name]
    res = triangle_count(_engine(name, R, C))
    assert res.extra["n_triangles"] == serial.triangle_count(graph)


def _engine_with(**settings) -> Engine:
    return Engine(rmat(4, seed=1), 4, **settings)


#: constructor name -> constructor
MAKERS = {
    "CheckpointManager": CheckpointManager,
    "IntegrityLedger": IntegrityLedger,
    "HealthMonitor": HealthMonitor,
    "Recovery": Recovery,
    "Autoscale": lambda **kw: Recovery("autoscale", **kw),
    "Engine": _engine_with,
}

#: (constructor name, parameter, hostile value)
SETTINGS = [
    ("CheckpointManager", "interval", 2.5),
    ("CheckpointManager", "interval", True),
    ("CheckpointManager", "keep", 1.5),
    ("CheckpointManager", "keep", True),
    ("IntegrityLedger", "interval", True),
    ("IntegrityLedger", "interval", 2.5),
    ("IntegrityLedger", "repair_budget", 0.5),
    ("CheckpointManager", "checkpoint_bw", 0),
    ("CheckpointManager", "checkpoint_bw", -1),
    ("CheckpointManager", "checkpoint_bw", np.nan),
    ("CheckpointManager", "checkpoint_bw", True),
    ("IntegrityLedger", "hash_bw", 0),
    ("IntegrityLedger", "exchange_bw", -1),
    ("IntegrityLedger", "latency_s", -1),
    ("IntegrityLedger", "latency_s", np.nan),
    ("HealthMonitor", "chronic_after", 2.5),
    ("HealthMonitor", "chronic_after", True),
    ("HealthMonitor", "suspect_s", np.inf),
    ("HealthMonitor", "rel_threshold", np.nan),
    ("HealthMonitor", "alpha", True),
    ("Recovery", "max_recoveries", 2.5),
    ("Recovery", "max_recoveries", True),
    ("Recovery", "max_recoveries", np.nan),
    ("Autoscale", "hysteresis", 1.5),
    ("Engine", "overlap", "no"),
    ("Engine", "overlap", 1),
    ("Engine", "memory_scale", 0),
    ("Engine", "memory_scale", -1.0),
    ("Engine", "memory_scale", np.nan),
    ("Engine", "memory_scale", np.inf),
    ("Engine", "memory_scale", True),
]


@pytest.mark.parametrize(
    "make, param, value",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}={case[2]!r}") for case in SETTINGS],
)
def test_a_hostile_setting_is_refused_naming_it(make, param, value):
    with pytest.raises(ValueError, match=rf"\b{param}\b"):
        MAKERS[make](**{param: value})


def test_a_numpy_bool_is_an_overlap_flag():
    assert _engine_with(overlap=np.bool_(True)).overlap is True
    assert _engine_with(overlap=np.False_).overlap is False
