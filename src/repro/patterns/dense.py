"""Dense 2D communication pattern (paper §3.3.1, Alg. 2, Fig. 2).

Dense exchanges communicate *every* vertex state along the groups,
whether or not it changed:

* **push** — AllReduce over each *column* group (combining all pushed
  contributions to each ghost vertex, whose matrix column spans the
  column group) followed by Broadcasts over each *row* group to give
  owners the final values;
* **pull** — AllReduce over each *row* group (combining the partial
  gathers of each owned vertex, whose matrix row spans the row group)
  followed by Broadcasts over each *column* group to refresh ghosts.

When ``R == C``, the broadcast root in each group is the diagonal rank
(its row and column GID ranges coincide).  When ``R != C``, a group
needs several broadcasts — one per overlapping range — which the paper
aggregates into one NCCL group call.

Because local IDs of a group are consecutive (paper Table 2), every
transfer here is a contiguous state-array slice: the whole exchange
needs only offsets and lengths, no index buffers.  They are fixed with
the 2D structure, so they are derived once per fleet
(:class:`~repro.core.fleet.ExchangePlan`: every window and overlap
segment as a slice of the rank-stacked state) and an exchange is "slice
the stacked array, issue each stage's collectives in one call".

Every exchange takes ``count(state)``: called between the two stages,
it returns every rank's partial (``p`` or ``p x t`` values) over the
windows the reduce stage made final — a pull's row windows, which
partition the vertices within a column group, or a push's column
windows, which cover every vertex once within a row group.  The
partials ride the Broadcast stage as its tail, and the exchange
returns their global sum (a float, or a ``t``-vector): the convergence
count of the superstep the exchange ends, with no collective of its own.
"""

from __future__ import annotations

import numpy as np

from ..comm.collectives import BroadcastCall
from ..core.engine import Engine

__all__ = ["dense_push", "dense_pull", "dense_exchange", "dense_exchange_lanes"]

#: direction -> (axis whose groups AllReduce, axis whose groups Broadcast)
_STAGES = {"push": ("col", "row"), "pull": ("row", "col")}


def _run(engine: Engine, state: np.ndarray, direction: str, op: str, tail=None, count=None):
    """One dense exchange of the rank-stacked ``state``: one AllReduce
    stage over the groups of the first axis (``tail[r]`` riding behind
    rank ``r``'s window), then one grouped-Broadcast stage over the
    groups of the second, carrying ``count(state)``; its global sum."""
    if direction not in _STAGES:
        raise ValueError(f"direction must be 'push' or 'pull', got {direction!r}")
    reduce_axis, broadcast_axis = _STAGES[direction]
    plan, comm = engine.fleet.exchange_plan(), engine.comm
    table = plan.reduce[reduce_axis]
    parts = [[state[w] for w in windows] for _, windows in table]
    if tail is not None:  # each member's words ride behind its window
        parts = [(p, [tail[r] for r in ranks]) for p, (ranks, _) in zip(parts, table)]
    comm.allreduce_stage([ranks for ranks, _ in table], parts, op, engine.stage_nic_sharing(reduce_axis))
    table = plan.broadcast[broadcast_axis]
    calls = [
        [BroadcastCall(state[src], [state[d] for d in dests]) for src, dests in segs]
        for _, segs in table
    ]
    words = None if count is None else np.asarray(count(state))
    sums = comm.grouped_broadcast_stage(
        [ranks for ranks, _ in table], calls, engine.stage_nic_sharing(broadcast_axis), words
    )
    if sums is not None:
        return sums[0] if words.ndim > 1 else float(sums[0, 0])


def _stacked(engine: Engine, state) -> np.ndarray:
    """A state's stacked buffer by name; a stacked array (a scratch
    operand, :meth:`~repro.core.engine.Engine.scratch`) as it is."""
    return engine.fleet.stacked(state) if isinstance(state, str) else state


def dense_push(engine: Engine, name, op: str = "min", count=None):
    """Dense push: column-group AllReduce, then row-group Broadcasts.
    ``name`` is a state's name or a stacked scratch array."""
    return _run(engine, _stacked(engine, name), "push", op, count=count)


def dense_pull(
    engine: Engine, name, op: str = "sum", tail: np.ndarray | None = None, count=None
):
    """Dense pull: row-group AllReduce, then column-group Broadcasts;
    ``tail`` (``p x t``, row ``r`` rank ``r``'s words) rides the
    AllReduce behind each window and is reduced in place.  ``name`` is
    a state's name or a stacked scratch array."""
    return _run(engine, _stacked(engine, name), "pull", op, tail, count)


def dense_exchange(engine: Engine, name: str, direction: str, op: str, count=None):
    """:func:`dense_push` or :func:`dense_pull`, by ``direction``."""
    return _run(engine, engine.fleet.stacked(name), direction, op, count=count)


def dense_exchange_lanes(
    engine: Engine, name: str, direction: str, op: str, lanes: np.ndarray, count=None
):
    """Dense exchange over a subset of a 2-D state's query lanes.

    Every transfer in the dense patterns is an axis-0 slice of the
    state array, so a full ``(N_T, k)`` lane state flows through
    :func:`dense_exchange` unchanged — one AllReduce per group carries
    all k columns at once (the α amortization of query batching).
    When only some lanes are still live, this wrapper packs the active
    columns of every rank into one ``(size, L)`` scratch array,
    runs the ordinary exchange on it, and unpacks — still one
    collective per group, sized to the live lanes.  Each rank's device
    is charged its share of the scratch for the duration (one ledger
    operation for all ranks); ``count`` sees the live lanes' columns.

    Per lane the reduction is bit-identical to a 1-D exchange of that
    lane's column: the group AllReduce reduces elementwise over the
    member axis, so each column sees exactly the 1-D combine order.
    """
    lanes = np.asarray(lanes, dtype=np.int64)
    fleet = engine.fleet
    state = fleet.stacked(name)
    if lanes.size == state.shape[1]:
        # All lanes live: exchange the state array directly.
        return _run(engine, state, direction, op, count=count)
    label = f"state.{name}#lanes"
    buf = state[:, lanes]
    try:
        engine.devices.charge({label: fleet.n_total * (lanes.size * state.itemsize)})
        total = _run(engine, buf, direction, op, count=count)
        state[:, lanes] = buf
    finally:
        engine.devices.release(label)
    return total
