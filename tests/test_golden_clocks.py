"""Golden modeled-clock fixture: the simulator's *modeled* output is a
fixed point of host-side performance work.

``golden_clocks.json`` holds cases recorded at the commit *before*
the host-side change they guard: the six traversal / label / PageRank
cases before the engine's supersteps were fused across ranks (PR 14),
the PageRank variants, betweenness, coloring and the SpMV comparator
before their edge-list sweeps became CSR pulls
(PR 15), k-core, matching, two more CC variants and ``spmv_bfs`` before
CC / SSSP became vertex programs and LP / k-core / coloring instances
of ``complex_reduce`` (PR 17), ``bfs_batch`` and ``sssp_batch`` before
their lane kernels took candidates by queue entry (PR 23).  Every case pins the modeled times (total / compute / comm /
overlap, and every per-iteration mark), the communication counters and
a digest of the answer, with floats stored as ``float.hex()`` so
equality is exact.  Every case runs twice against the same entry: with
``Engine.map_ranks`` visiting the ranks in rank order (id ``env``) and
in reverse (id ``threads4``, the id of the thread-pool leg it
replaced) — a per-rank closure that touched another rank's state would
move the clock on one of the two.

Pointer jumping (``pj``) is pinned from before its packet swaps and
jump loop left their per-rank closures.  Triangle counting (``tc``,
square grids only: ``tc|{2x2,4x4,16x16}|{blocking,overlap}``) is
pinned from before its blocks and its masked SUMMA step left their
per-rank closures; its answer is ``extra["n_triangles"]`` (``values``
is ``None``), and that count is what its digest hashes.

Add cases for code about to change — at the parent commit, before the
first source edit; recorded cases are left byte-identical::

    PYTHONPATH=src python tests/test_golden_clocks.py --record-missing

Re-record everything (only when a PR *means* to change the model)::

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
from repro.algorithms.batch import bfs_batch, sssp_batch
from repro.algorithms.components import CC_VARIANTS
from repro.baselines.spmv import spmv_bfs, spmv_cc, spmv_pagerank
from repro.comm.grid import Grid2D
from repro.faults import CheckpointManager, HealthMonitor, IntegrityLedger
from repro.graph import rmat

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_clocks.json")

#: (R, C); the 16x16 grid runs on the same small graph, so most ranks
#: hold a handful of rows and several hold no edges at all.
GRIDS = [(2, 2), (4, 4), (2, 4), (3, 5), (1, 4), (4, 1), (16, 16)]

ALGOS = {
    "bfs": lambda e: algorithms.bfs(e, root=3),
    "cc": lambda e: algorithms.connected_components(e),
    "sssp": lambda e: algorithms.sssp(e, root=3),
    "lp": lambda e: algorithms.label_propagation(e, iterations=6),
    "pagerank": lambda e: algorithms.pagerank(e, iterations=5),
    "pagerank_weighted": lambda e: algorithms.pagerank(e, iterations=5, weighted=True),
    # stops at iteration 12 of 20
    "pagerank_personalized_tol": lambda e: algorithms.pagerank(
        e, personalization=_personalization(e), tol=1e-6
    ),
    "betweenness": lambda e: algorithms.betweenness(e, sources=[3, 17]),
    "greedy_coloring": lambda e: algorithms.greedy_coloring(e, max_rounds=6),
    "spmv_pagerank": lambda e: spmv_pagerank(e, iterations=5),
    "spmv_cc": lambda e: spmv_cc(e),
    "kcore": lambda e: algorithms.core_numbers(e),
    "cc_base": lambda e: algorithms.connected_components(e, **CC_VARIANTS["Base"]),
    # the variant whose dense convergence flag is hidden under overlap
    "cc_pull_switch_queue": lambda e: algorithms.connected_components(
        e, **CC_VARIANTS["+SP+SW+VQ"]
    ),
    "spmv_bfs": lambda e: spmv_bfs(e, root=3),
    "mwm": lambda e: algorithms.max_weight_matching(e),
    "bfs_guarded": lambda e: algorithms.bfs(_guarded(e), root=3),
    # k = 3: the lane scatters' composite index takes its multiply /
    # divide branch, not the power-of-two shift / mask
    "bfs_batch": lambda e: bfs_batch(e, [3, 17, 200]),
    "sssp_batch": lambda e: sssp_batch(e, [3, 17, 200]),
    "pj": lambda e: algorithms.pointer_jumping(e),
    "tc": lambda e: algorithms.triangle_count(e),
}

#: Algorithms that run on square grids only.
SQUARE_ONLY = {"tc"}

CASES = [
    (algo, R, C, overlap)
    for algo in ALGOS
    for R, C in GRIDS
    if R == C or algo not in SQUARE_ONLY
    for overlap in (False, True)
]

#: Host rank order of each leg, by test id (see the module docstring).
ORDERS = {"env": "forward", "threads4": "reversed"}


def _graph():
    return rmat(9, seed=5).with_random_weights(seed=5)


def _personalization(engine) -> np.ndarray:
    v = np.arange(engine.partition.n_vertices)
    return (v % 7 == 0) * (1.0 + v % 3)


def _guarded(engine):
    """Attach the three boundary hooks: their certify and checkpoint
    stall charges are inside ``total`` and every mark."""
    engine.attach_checkpoints(CheckpointManager(interval=2))
    engine.attach_integrity(IntegrityLedger(interval=1))
    engine.attach_health(HealthMonitor())
    return engine


def _key(algo, R, C, overlap) -> str:
    return f"{algo}|{R}x{C}|{'overlap' if overlap else 'blocking'}"


def _phase(p) -> list[str]:
    return [float(x).hex() for x in (p.total, p.compute, p.comm, p.overlap)]


def run_case(graph, algo, R, C, overlap) -> dict:
    engine = Engine(graph, grid=Grid2D(R=R, C=C), overlap=overlap)
    res = ALGOS[algo](engine)
    t = res.timings
    answer = res.extra["n_triangles"] if res.values is None else res.values
    values = np.ascontiguousarray(answer)
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


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
@pytest.mark.parametrize(
    "algo,R,C,overlap", CASES, ids=[_key(*c) for c in CASES]
)
def test_modeled_clock_is_golden(golden, graph, algo, R, C, overlap, order):
    from .conftest import rank_order  # here: the file also runs as a script

    with rank_order(order):
        got = run_case(graph, algo, R, C, overlap)
    want = golden[_key(algo, R, C, overlap)]
    # Compare field by field so a failure names what moved.
    for field in want:
        assert got[field] == want[field], field
    assert set(got) == set(want)


def test_fixture_covers_every_case(golden):
    assert set(golden) == {_key(*c) for c in CASES}


if __name__ == "__main__":
    if sys.argv[1:] not in (["--record"], ["--record-missing"]):
        raise SystemExit(__doc__)
    out = {}
    if sys.argv[1] == "--record-missing":
        with open(FIXTURE) as fh:
            out = json.load(fh)
    g = _graph()
    missing = [c for c in CASES if _key(*c) not in out]
    out.update({_key(*c): run_case(g, *c) for c in missing})
    with open(FIXTURE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    print(f"recorded {len(missing)} of {len(out)} cases to {FIXTURE}")
