"""Planned dense exchanges (``Fleet.exchange_plan``): same values, same
collectives, same modeled time as the per-call geometry they replaced.

Two fixed points per case:

* **values** — after the exchange every LID of every vertex, on every
  rank, holds the global reduction (computed here from the partition's
  public ranges, exactly: the states are small integers);
* **accounting** — ``CommCounters`` and every ``VirtualClocks`` lane
  equal ``dense_plan_golden.json``, recorded *at the parent commit*,
  where each call still derived the overlap segments and window views
  itself.  Floats are stored as ``float.hex()``.  The cost of a
  collective does not depend on the reduction, so one recorded entry
  serves ``min`` / ``max`` / ``sum``.

Grids are ``(R, C)``: square, R > C, R < C, 1xp, px1, prime p (which
forces 1xp / px1), and 3x5; ``n = 101`` is divisible by none of the
dimensions.  Record (only at a commit whose exchanges are trusted)::

    PYTHONPATH=src python tests/patterns/test_dense_plan.py --record
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from repro import Engine
from repro.comm.grid import Grid2D
from repro.graph import erdos_renyi_gnm
from repro.patterns import dense_exchange, dense_exchange_lanes

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "dense_plan_golden.json"
)

GRIDS = [(3, 3), (4, 2), (2, 4), (1, 4), (4, 1), (1, 7), (7, 1), (3, 5)]
OPS = {"min": np.minimum, "max": np.maximum, "sum": np.add}
#: state form -> (lane width or None, lanes exchanged or None for all)
FORMS = {"1d": (None, None), "lanes": (3, None), "subset": (4, [0, 2, 3])}
DIRECTIONS = ("push", "pull")
CASES = [
    (R, C, form, direction)
    for R, C in GRIDS
    for form in FORMS
    for direction in DIRECTIONS
]


def _key(R, C, form, direction) -> str:
    return f"{R}x{C}|{form}|{direction}"


def _graph():
    return erdos_renyi_gnm(101, 400, seed=3)


def _run(graph, R, C, form, direction, op):
    """Fill a state with small integers, skew the clocks (so every
    group synchronization has a straggler to wait for), exchange."""
    width, lanes = FORMS[form]
    engine = Engine(graph, grid=Grid2D(R=R, C=C), overlap=False)
    rng = np.random.default_rng([R, C, len(form)])
    before = []
    for ctx, arr in zip(engine, engine.alloc("x", np.float64, width=width)):
        arr[...] = rng.integers(-50, 50, size=arr.shape)
        before.append(arr.copy())
        engine.clocks.add_compute(ctx.rank, (ctx.rank * 7 % 5 + 1) * 1e-6)
    if lanes is None:
        dense_exchange(engine, "x", direction, op)
    else:
        dense_exchange_lanes(engine, "x", direction, op, np.array(lanes))
    return engine, before


def _accounting(engine) -> dict:
    return {
        "counters": engine.counters.summary(),
        "lanes": {
            lane: [float(x).hex() for x in values]
            for lane, values in engine.clocks.per_rank_lanes().items()
        },
    }


def _global_reduction(engine, before, direction, op):
    """Per relabeled GID: ``op`` over the column-window (push) or
    row-window (pull) values of every rank that holds the vertex."""
    ufunc = OPS[op]
    n = engine.partition.n_vertices
    identity = {"min": np.inf, "max": -np.inf, "sum": 0.0}[op]
    out = np.full((n,) + before[0].shape[1:], identity)
    for ctx, arr in zip(engine, before):
        lm = ctx.localmap
        if direction == "push":
            gids, window = slice(lm.col_start, lm.col_stop), arr[lm.col_slice]
        else:
            gids, window = slice(lm.row_start, lm.row_stop), arr[lm.row_slice]
        out[gids] = ufunc(out[gids], window)
    return out


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def graph():
    return _graph()


@pytest.mark.parametrize("op", list(OPS))
@pytest.mark.parametrize(
    "R,C,form,direction", CASES, ids=[_key(*case) for case in CASES]
)
def test_planned_exchange(graph, golden, R, C, form, direction, op):
    engine, before = _run(graph, R, C, form, direction, op)
    want = _global_reduction(engine, before, direction, op)
    width, lanes = FORMS[form]
    n_cols = width or 1  # a 1-D state is one column
    want = want.reshape(-1, n_cols)
    for ctx, old in zip(engine, before):
        lm = ctx.localmap
        expect = old.copy()
        columns = expect.reshape(-1, n_cols)  # a view
        for j in range(n_cols) if lanes is None else lanes:
            columns[lm.row_slice, j] = want[lm.row_start : lm.row_stop, j]
            columns[lm.col_slice, j] = want[lm.col_start : lm.col_stop, j]
        np.testing.assert_array_equal(ctx.get("x"), expect, strict=True)
    assert _accounting(engine) == golden[_key(R, C, form, direction)]


def test_plan_is_built_once_and_follows_the_grid(graph):
    engine = Engine(graph, grid=Grid2D(R=2, C=4))
    plan = engine.fleet.exchange_plan()
    assert engine.fleet.exchange_plan() is plan
    regridded = engine.rebuild_on_grid(Grid2D(R=4, C=2))
    other = regridded.fleet.exchange_plan()
    assert other is not plan
    assert len(other.reduce["row"]) == 2 and len(plan.reduce["row"]) == 4


def _record() -> None:
    graph = _graph()
    out = {}
    for R, C, form, direction in CASES:
        per_op = [
            _accounting(_run(graph, R, C, form, direction, op)[0]) for op in OPS
        ]
        assert per_op[0] == per_op[1] == per_op[2], "accounting depends on the op"
        out[_key(R, C, form, direction)] = per_op[0]
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
