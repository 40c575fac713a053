"""The SpMV comparator and triangle counting on inputs that leave ranks
with empty windows and empty slices, against ``reference/serial.py``.

Every input below starves some rank: fewer vertices than ranks (a
rank's row or column window is empty), a root with no edge (its slice
of the masked SpMV expands nothing), a graph with no edges at all, and
the 1 x p, p x 1 and 3 x 5 grids whose groups have one member on one
axis or windows of unequal length.  Triangle counting needs a square
grid and runs on the square ones only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import triangle_count
from repro.baselines import spmv_bfs, spmv_cc
from repro.comm.grid import Grid2D
from repro.core.engine import Engine
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
