"""Golden modeled-clock fixture: the simulator's *modeled* output is a
fixed point of host-side performance work.

``golden_clocks.json`` was recorded at the commit before the engine's
supersteps were fused across ranks (PR 14).  Every case pins the
modeled times (total / compute / comm / overlap, and every
per-iteration mark), the communication counters and a digest of the
answer, with floats stored as ``float.hex()`` so equality is exact.
The suite runs on whichever rank executor ``REPRO_EXECUTOR`` selects
and on ``threads:4`` explicitly.

Re-record (only when a PR *means* to change the model)::

    PYTHONPATH=src python tests/test_golden_clocks.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro import Engine, algorithms
from repro.comm.grid import Grid2D
from repro.graph import rmat

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_clocks.json")

#: (R, C); the 16x16 grid runs on the same small graph, so most ranks
#: hold a handful of rows and several hold no edges at all.
GRIDS = [(2, 2), (4, 4), (2, 4), (3, 5), (1, 4), (4, 1), (16, 16)]

ALGOS = {
    "bfs": lambda e: algorithms.bfs(e, root=3),
    "bfs_topdown": lambda e: algorithms.bfs(e, root=3, hybrid=False),
    "cc": lambda e: algorithms.connected_components(e),
    "sssp": lambda e: algorithms.sssp(e, root=3),
    "lp": lambda e: algorithms.label_propagation(e, iterations=6),
    "pagerank": lambda e: algorithms.pagerank(e, iterations=5),
}

CASES = [
    (algo, R, C, overlap)
    for algo in ALGOS
    for R, C in GRIDS
    for overlap in (False, True)
]


def _graph():
    return rmat(9, seed=5).with_random_weights(seed=5)


def _key(algo, R, C, overlap) -> str:
    return f"{algo}|{R}x{C}|{'overlap' if overlap else 'blocking'}"


def _phase(p) -> list[str]:
    return [float(x).hex() for x in (p.total, p.compute, p.comm, p.overlap)]


def run_case(graph, algo, R, C, overlap, executor) -> dict:
    engine = Engine(graph, grid=Grid2D(R=R, C=C), executor=executor, overlap=overlap)
    res = ALGOS[algo](engine)
    t = res.timings
    values = np.ascontiguousarray(res.values)
    return {
        "total": float(t.total).hex(),
        "compute": float(t.compute).hex(),
        "comm": float(t.comm).hex(),
        "overlap": float(t.overlap).hex(),
        "marks": [_phase(p) for p in t.per_iteration],
        "iterations": int(res.iterations),
        "counters": res.counters,
        "digest": hashlib.sha256(
            str(values.dtype).encode() + values.tobytes()
        ).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def graph():
    return _graph()


@pytest.mark.parametrize("executor", [None, "threads:4"], ids=["env", "threads4"])
@pytest.mark.parametrize(
    "algo,R,C,overlap", CASES, ids=[_key(*c) for c in CASES]
)
def test_modeled_clock_is_golden(golden, graph, algo, R, C, overlap, executor):
    got = run_case(graph, algo, R, C, overlap, executor)
    want = golden[_key(algo, R, C, overlap)]
    # Compare field by field so a failure names what moved.
    for field in want:
        assert got[field] == want[field], field
    assert set(got) == set(want)


def test_fixture_covers_every_case(golden):
    assert set(golden) == {_key(*c) for c in CASES}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    g = _graph()
    out = {_key(*c): run_case(g, *c, executor="serial") for c in CASES}
    with open(FIXTURE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"recorded {len(out)} cases to {FIXTURE}")
