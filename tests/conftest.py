"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.comm.grid import Grid2D
from repro.core.engine import Engine
from repro.graph import erdos_renyi_gnm, rmat
from repro.reference.graphs import grid_graph, path_graph, star_graph

#: Grid shapes exercising square, non-square, tall/wide, and
#: non-divisible vertex counts.
GRIDS = [
    Grid2D(R=1, C=1),
    Grid2D(R=2, C=2),
    Grid2D(R=4, C=1),
    Grid2D(R=1, C=4),
    Grid2D(R=4, C=2),
    Grid2D(R=2, C=4),
    Grid2D(R=3, C=5),
    Grid2D(R=4, C=4),
]


@pytest.fixture(params=GRIDS, ids=lambda g: f"{g.C}x{g.R}")
def any_grid(request) -> Grid2D:
    return request.param


@pytest.fixture
def rmat_graph():
    return rmat(8, seed=11)


@pytest.fixture
def er_graph():
    return erdos_renyi_gnm(300, 1200, seed=4)


@pytest.fixture
def lattice():
    return grid_graph(8, 9)


@pytest.fixture
def path10():
    return path_graph(10)


@pytest.fixture
def star20():
    return star_graph(20)


def _map_ranks_reversed(self, fn, ranks=None) -> list:
    """``Engine.map_ranks`` visiting the ranks last to first; the
    results stay in rank order."""
    contexts = self.contexts if ranks is None else [self.contexts[r] for r in ranks]
    return [fn(ctx) for ctx in contexts[::-1]][::-1]


@contextlib.contextmanager
def rank_order(order: str):
    """Run the block with every engine's ``map_ranks`` visiting the
    ranks in ``order``: ``"forward"`` (the engine's own loop) or
    ``"reversed"``.

    A ``map_ranks`` closure touches only its own rank's state — the
    contract the fleet's fused supersteps rest on — so values, clocks
    and counters must not depend on the order.  The matrices that ran
    a thread-pool leg before the host became single-threaded run the
    reversed leg under that leg's id (``threads4``, ``threads:4``).
    """
    assert order in ("forward", "reversed"), order
    if order == "forward":
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "map_ranks", _map_ranks_reversed)
        yield


def state_is_stacked(engine, name: str) -> bool:
    """Is state ``name``, on every rank, the rank's slice of the one
    rank-stacked buffer?"""
    buf = engine.fleet.stacked(name)
    base = engine.fleet.base
    return all(
        ctx.arrays[name].base is buf
        and ctx.arrays[name].shape[0] == ctx.n_total
        and (
            ctx.n_total == 0
            or np.shares_memory(
                ctx.arrays[name], buf[base[ctx.rank] : base[ctx.rank + 1]]
            )
        )
        for ctx in engine
    )


def assert_state_is_stacked(engine) -> None:
    """Every state array allocated on ``engine`` is stacked (see
    :func:`state_is_stacked`)."""
    names = sorted({name for ctx in engine for name in ctx.arrays})
    assert names, "engine holds no state"
    for name in names:
        assert state_is_stacked(engine, name), name


def permute(graph, perm: np.ndarray):
    """``graph`` relabeled: vertex ``v`` becomes ``perm[v]`` (the
    reference a partition's relabeled blocks are checked against)."""
    from repro.graph import Graph

    perm = np.asarray(perm, dtype=np.int64)
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), graph.degrees())
    return Graph.from_edges(
        perm[src],
        perm[graph.indices],
        graph.n_vertices,
        weights=graph.weights,
        symmetrize=False,
        remove_self_loops=False,
    )


def scatter_global(partition, vec: np.ndarray, rank: int) -> np.ndarray:
    """Rank ``rank``'s local view (``N_T`` long) of ``vec``, a global
    vector in original vertex order: both windows filled, every other
    cell zero — what ``Engine.scatter_global`` writes on each rank."""
    vec = np.asarray(vec)
    relabeled = partition.to_relabeled_order(vec)
    lm = partition.blocks[rank].localmap
    local = np.zeros((lm.n_total,) + vec.shape[1:], dtype=vec.dtype)
    local[lm.row_slice] = relabeled[lm.row_start : lm.row_stop]
    local[lm.col_slice] = relabeled[lm.col_start : lm.col_stop]
    return local


def row_gid(localmap, lids):
    """Relabeled GIDs of a rank's row-window LIDs."""
    return np.asarray(lids) - localmap.row_offset + localmap.row_start


def owns_col_gid(localmap, gids):
    """Is each relabeled GID in the rank's column window?"""
    gids = np.asarray(gids)
    return (gids >= localmap.col_start) & (gids < localmap.col_stop)


def ledger_entries(ledger, rank: int) -> dict[str, int]:
    """``label -> bytes`` of every entry rank ``rank`` holds in a
    ``DeviceLedger`` (an engine's is ``engine.devices``)."""
    return {
        label: int(ledger.bytes[row, rank])
        for label, row in ledger.rows.items()
        if ledger.held[row, rank]
    }


def random_graph(seed: int, n_max: int = 200, density: float = 4.0):
    """Reproducible random test graph (for hand-rolled sweeps)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max))
    m = int(n * density)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    from repro.graph import Graph

    return Graph.from_edges(src, dst, n)


def watch_convergence(engine) -> list[dict]:
    """Record every global count the loop reads on ``engine``: each
    :meth:`Engine.reduce_partials` call and each tail a
    ``grouped_broadcast_stage`` carries (a dense exchange's ``count``).

    Each record holds the count's ``value`` (a float, or a lane
    vector), the ``stages`` it rode as ``(method, groups)`` — the
    ``allreduce_stage`` / ``start_allreduce_stage`` calls made inside
    ``reduce_partials``, or the one Broadcast stage that carried the
    tail — and ``after``: the method of every collective stage issued
    after the count and before the superstep's boundary."""
    calls: list[dict] = []
    open_: list[dict] = []
    reduce, comm, boundary = engine.reduce_partials, engine.comm, engine.superstep_boundary

    def reduce_partials(*args, **kwargs):
        calls.append({"stages": [], "after": []})
        value, wait = reduce(*args, **kwargs)
        calls[-1]["value"] = value
        open_.append(calls[-1])
        return value, wait

    def watched(name):
        issue = getattr(comm, name)

        def stage(groups, *args, **kwargs):
            for call in open_:
                call["after"].append(name)
            if calls and "value" not in calls[-1]:
                calls[-1]["stages"].append((name, [list(g) for g in groups]))
            out = issue(groups, *args, **kwargs)
            tail = kwargs.get("tail", args[2] if len(args) > 2 else None)
            if name == "grouped_broadcast_stage" and tail is not None:
                value = out[0] if np.ndim(tail) > 1 else float(out[0, 0])
                calls.append(
                    {"stages": [(name, [list(g) for g in groups])], "after": [], "value": value}
                )
                open_.append(calls[-1])
            return out

        return stage

    def superstep_boundary(*args, **kwargs):
        open_.clear()
        return boundary(*args, **kwargs)

    for name in dir(comm):
        if name.endswith("_stage") and not name.startswith("_"):
            setattr(comm, name, watched(name))
    engine.reduce_partials = reduce_partials
    engine.superstep_boundary = superstep_boundary
    return calls


def record_stages(monkeypatch) -> list[dict]:
    """Record every variable-size stage a run issues, blocking or
    split-phase, as ``{"kind", "groups", "sends", "received"}``:
    ``sends[r]`` is rank ``r``'s send rows (an AllToAllV's: one part
    per destination member), ``received`` one buffer per group (an
    AllGatherv's) or per rank (an AllToAllV's).  What a pattern hands
    each owner, read at the collective."""
    from repro.comm.collectives import Communicator

    stages: list[dict] = []

    def split(rows, counts):
        return np.split(np.array(rows, copy=True), np.cumsum(counts)[:-1])

    def watched(name, kind):
        issue = getattr(Communicator, name)

        def stage(self, groups, send, counts, *args, **kwargs):
            out = issue(self, groups, send, counts, *args, **kwargs)
            result = out[0] if name.startswith("start_") else out
            counts = np.asarray(counts)
            if kind == "allgatherv":
                sends = split(send, counts.ravel())
                received = [np.array(r, copy=True) for r in result]
            else:
                parts = split(send, counts.ravel())
                k = counts.shape[1]
                sends = [parts[r * k : r * k + k] for r in range(counts.shape[0])]
                received = split(*result)
            stages.append({
                "kind": kind, "groups": [list(g) for g in groups],
                "sends": sends, "received": received,
            })
            return out

        return stage

    for kind in ("allgatherv", "alltoallv"):
        for name in (f"{kind}_stage", f"start_{kind}_stage"):
            monkeypatch.setattr(Communicator, name, watched(name, kind))
    return stages
