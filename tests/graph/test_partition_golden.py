"""Graph build and 2D blocking, pinned byte for byte.

``partition_golden.json`` holds, per case, the SHA-256, dtype and shape
of every array a :class:`~repro.graph.Graph` or a
:class:`~repro.graph.partition.TwoDPartition` carries:

* ``rmat(12)`` on seeds 1 and 7, unweighted and after
  ``with_random_weights``;
* ``partition_2d`` of the seed-1 graphs (both forms) on the ``(R, C)``
  grids 16x16, 8x4, 2x2, 3x5, 1x7 and 7x1 under every distribution.

The fixture was recorded from the scipy COO->CSR build (now the oracles
in ``tests/graph/build_reference.py``), so any rewrite of the build
must reproduce it exactly, dtypes included.  Index arrays are hashed in
the form the fixture was recorded in: ``int64``, and the partition's
adjacency as each rank's *local* LIDs (the arrays themselves hold
``index_dtype`` ids, the partition's stacked across ranks — asserted
separately).  Record (only at a commit whose build is trusted)::

    PYTHONPATH=src python tests/graph/test_partition_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.comm.grid import Grid2D
from repro.graph import index_dtype, partition_2d, rmat

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "partition_golden.json"
)

SEEDS = (1, 7)
FORMS = ("unweighted", "weighted")
GRIDS = [(16, 16), (8, 4), (2, 2), (3, 5), (1, 7), (7, 1)]
DISTRIBUTIONS = ("striped", "random", "block")
GRAPH_CASES = [(seed, form) for seed in SEEDS for form in FORMS]
PARTITION_CASES = [
    (form, R, C, dist) for form in FORMS for R, C in GRIDS for dist in DISTRIBUTIONS
]
#: The arrays a TwoDPartition carries (its blocks are views of them).
PARTITION_ARRAYS = (
    "row_offsets",
    "col_offsets",
    "perm",
    "indptr",
    "indices",
    "weights",
    "ptr_offsets",
    "edge_offsets",
)


def _graph(seed: int, form: str):
    g = rmat(12, seed=seed)
    return g.with_random_weights(seed=seed) if form == "weighted" else g


def _digest(arr) -> dict | None:
    if arr is None:
        return None
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
    }


def local_lids(part) -> np.ndarray:
    """The partition's adjacency as each rank's own LIDs, ``int64``."""
    shift = np.repeat(part.lid_offsets[:-1], np.diff(part.edge_offsets))
    return part.indices.astype(np.int64) - shift


def _graph_record(g) -> dict:
    arrays = {"indptr": g.indptr, "indices": g.indices.astype("<i8"), "weights": g.weights}
    return {name: _digest(arr) for name, arr in arrays.items()}


def _partition_record(part) -> dict:
    out = {name: _digest(getattr(part, name)) for name in PARTITION_ARRAYS}
    out["indices"] = _digest(local_lids(part).astype("<i8"))
    out["n_edges"] = int(part.n_edges)
    return out


def _graph_key(seed, form) -> str:
    return f"graph|rmat12|seed{seed}|{form}"


def _partition_key(form, R, C, dist) -> str:
    return f"partition|rmat12|seed1|{form}|{R}x{C}|{dist}"


def _partition(graph, R, C, dist):
    return partition_2d(graph, Grid2D(R=R, C=C), distribution=dist, seed=3)


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def graphs():
    return {case: _graph(*case) for case in GRAPH_CASES}


@pytest.mark.parametrize(
    "seed,form", GRAPH_CASES, ids=[_graph_key(*c) for c in GRAPH_CASES]
)
def test_graph_matches_golden(graphs, golden, seed, form):
    g = graphs[seed, form]
    assert _graph_record(g) == golden[_graph_key(seed, form)]
    assert g.indices.dtype == np.int32 and g.indptr.dtype == np.int64


@pytest.mark.parametrize(
    "form,R,C,dist", PARTITION_CASES, ids=[_partition_key(*c) for c in PARTITION_CASES]
)
def test_partition_matches_golden(graphs, golden, form, R, C, dist):
    part = _partition(graphs[1, form], R, C, dist)
    assert _partition_record(part) == golden[_partition_key(form, R, C, dist)]
    assert part.indices.dtype == np.int32
    assert part.indices.dtype == index_dtype(int(part.lid_offsets[-1]), part.n_edges)
    n_total = [blk.n_total for blk in part.blocks]
    assert part.lid_offsets.tolist() == np.concatenate([[0], np.cumsum(n_total)]).tolist()
    assert [blk.lid_base for blk in part.blocks] == part.lid_offsets[:-1].tolist()


def _record() -> None:
    graphs = {case: _graph(*case) for case in GRAPH_CASES}
    out = {_graph_key(*case): _graph_record(graphs[case]) for case in GRAPH_CASES}
    for form, R, C, dist in PARTITION_CASES:
        part = _partition(graphs[1, form], R, C, dist)
        out[_partition_key(form, R, C, dist)] = _partition_record(part)
    rows = [
        f"{json.dumps(key)}: {json.dumps(out[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(out)
    ]
    with open(FIXTURE, "w", encoding="utf-8") as fh:  # one case per line
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {len(out)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
