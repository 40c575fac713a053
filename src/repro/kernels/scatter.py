"""Fused scatter-reduce kernel (the simulator's ReduceQueue, Alg. 5).

The call sites used to wrap every update in the same idiom:
``np.unique(lids)`` + ``old.copy()`` + ``np.<op>.at`` + compare.  The
``np.unique`` hash/sort pass dominates on edge-sized index arrays
(it costs a full sort of ``lids`` just to learn which entries to
compare), and every call site re-implemented the compare by hand.
:func:`scatter_reduce` centralizes the update and picks a strategy by
*regime*:

* **dense** (``lids`` comparable to or larger than ``state``): snapshot
  the state, run the unbuffered ``np.<op>.at`` (SIMD fast path in
  modern NumPy), and diff the full array — no sort of the edge-sized
  index array at all;
* **sparse** (``lids`` much smaller than ``state``): classic
  ``np.unique`` bookkeeping, where sorting the small queue is cheaper
  than touching the whole state;
* **structured dtypes** (``{value, tiebreak}`` pairs): ufuncs cannot
  reduce structured scalars, so a ``np.lexsort`` + segment pass
  reduces lexicographically over the fields.

Equivalence contract (see ``docs/PERF.md``): both numeric regimes
perform the *identical* ``np.<op>.at`` update as the reference idiom —
the stored state is bit-identical for every op, including the
left-to-right accumulation order of ``sum`` and NaN propagation of
``min``/``max``.  Change detection is always the explicit exact
compare ``new != old``: for ``sum`` a delta of ``0.0`` — or deltas
that cancel exactly — leaves a vertex out of the changed set,
deterministically.

:func:`segment_reduce` exposes the sorted-run reduction separately for
callers that already hold run boundaries (histogram merges, CSR
dedup), where ``reduceat`` beats an indexed scatter outright.

:func:`scatter_reduce_lanes` is the lane-aware 2-D path used by the
batched multi-source traversals: ``k`` query lanes share one
``(n, k)`` state array and one fused update, with per-lane results
bit-identical to ``k`` independent 1-D :func:`scatter_reduce` calls.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ScatterError",
    "scatter_reduce",
    "scatter_reduce_lanes",
    "segment_reduce",
    "unique_bounded",
]

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Use the dense full-array diff once lids are at least this fraction
#: of the state length (sorting the queue stops being the cheap part).
_DENSE_FRACTION = 0.25

_UFUNCS = {"min": np.minimum, "max": np.maximum, "sum": np.add}


class ScatterError(ValueError):
    """Unsupported op/dtype combination for :func:`scatter_reduce`."""


#: Largest index domain for which :func:`unique_bounded` builds a
#: presence bitmap instead of falling back to ``np.unique`` (a bitmap
#: this size costs one byte per domain slot).
_UNIQUE_BITMAP_MAX = 1 << 22


def unique_bounded(values: np.ndarray, bound: int) -> np.ndarray:
    """Sorted unique of non-negative ints known to lie in ``[0, bound)``.

    ``np.unique`` pays a hash/sort pass whose per-call overhead
    dominates on the small queues the exchange patterns dedup.  When
    the queue is small relative to the domain, an explicit sort plus
    boundary scan wins; when it is comparable to the domain (local
    state sizes, composite ``lid * k + lane`` indices), a presence
    bitmap plus one boolean scan wins.  Both return the identical
    sorted array; very large domains fall back to ``np.unique``.
    """
    values = np.asarray(values)
    if values.size == 0:
        return _EMPTY_I64
    if values.size * 16 < bound:
        s = np.sort(values)
        keep = np.empty(s.size, dtype=bool)
        keep[0] = True
        np.not_equal(s[1:], s[:-1], out=keep[1:])
        return s[keep]
    if bound > _UNIQUE_BITMAP_MAX:
        return np.unique(values)
    seen = np.zeros(bound, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def segment_reduce(values: np.ndarray, starts: np.ndarray, op: str) -> np.ndarray:
    """Reduce ``values`` over segments beginning at ``starts``.

    ``starts`` must be strictly increasing positions into ``values``
    (segment ``i`` spans ``starts[i]:starts[i+1]``); the standard
    output of a run-length boundary scan.  Ops: ``min``/``max``/``sum``.
    """
    if op == "min":
        return np.minimum.reduceat(values, starts)
    if op == "max":
        return np.maximum.reduceat(values, starts)
    if op == "sum":
        return np.add.reduceat(values, starts)
    raise ScatterError(f"unsupported segment op {op!r}")


def scatter_reduce(
    state: np.ndarray,
    lids: np.ndarray,
    vals,
    op: str = "min",
) -> np.ndarray:
    """Reduce ``vals`` into ``state`` at ``lids``; return changed LIDs.

    Semantically ``np.<op>.at(state, lids, vals)`` fused with
    change-detection: the returned array holds the sorted unique
    indices whose stored value differs (exact compare) from before the
    reduction.  ``vals`` may be a scalar (broadcast over ``lids``).
    ``sum`` has delta semantics: callers send deltas, not absolutes.

    Supports numeric dtypes for all ops and structured dtypes
    (lexicographic field order) for ``min``/``max``.
    """
    lids = np.asarray(lids)
    if lids.size == 0:
        return _EMPTY_I64
    if not np.issubdtype(lids.dtype, np.integer):
        raise ScatterError(f"lids must be integers, got {lids.dtype}")
    vals = np.asarray(vals)
    if vals.ndim == 0:
        vals = np.broadcast_to(vals, lids.shape)
    if state.dtype.names is not None:
        return _scatter_structured(state, lids, vals, op)
    try:
        ufunc = _UFUNCS[op]
    except KeyError:
        raise ScatterError(f"unsupported scatter op {op!r}") from None

    if lids.size >= _DENSE_FRACTION * state.shape[0]:
        # Dense regime: diff the whole state instead of sorting an
        # edge-sized index array.
        old = state.copy()
        ufunc.at(state, lids, vals)
        return np.flatnonzero(state != old)
    # Sparse regime: the queue is small, unique bookkeeping is cheap.
    uniq = unique_bounded(lids, state.shape[0])
    old = state[uniq].copy()
    ufunc.at(state, lids, vals)
    return uniq[state[uniq] != old]


def scatter_reduce_lanes(
    state: np.ndarray,
    lids: np.ndarray,
    vals,
    op: str = "min",
    *,
    lanes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lane-aware scatter-reduce over a 2-D ``(n, k)`` state array.

    Every update targets one ``(lid, lane)`` cell: the update runs over
    the flattened state through the composite index ``lid * k + lane``,
    so each lane's subsequence of the update stream is applied in
    exactly the order a 1-D :func:`scatter_reduce` on that lane's
    column would use (bit-identical per lane, including ``sum``
    accumulation order).

    Returns ``(changed_lids, changed_lanes)``: the cells whose stored
    value changed (exact compare), sorted by ``(lid, lane)``.
    Requires ``state`` to be C-contiguous (the layout
    :meth:`~repro.core.context.RankContext.alloc` produces).
    """
    if state.ndim != 2:
        raise ScatterError(f"lane scatter needs a 2-D state, got {state.ndim}-D")
    if not state.flags.c_contiguous:
        raise ScatterError("lane scatter needs a C-contiguous state array")
    k = state.shape[1]
    lids = np.asarray(lids)
    if lids.size == 0:
        return _EMPTY_I64, _EMPTY_I64
    if not np.issubdtype(lids.dtype, np.integer):
        raise ScatterError(f"lids must be integers, got {lids.dtype}")
    lanes = np.asarray(lanes)
    if lanes.shape != lids.shape:
        raise ScatterError(
            f"lanes shape {lanes.shape} must match lids shape {lids.shape}"
        )
    flat = state.reshape(-1)
    if k & (k - 1) == 0:
        # Power-of-two lane count: shift/mask instead of the much
        # slower int64 multiply/divide for the composite index.
        shift = k.bit_length() - 1
        comp = (lids.astype(np.int64, copy=False) << shift) | lanes
        changed = scatter_reduce(flat, comp, vals, op)
        return changed >> shift, changed & (k - 1)
    comp = lids.astype(np.int64, copy=False) * k + lanes
    changed = scatter_reduce(flat, comp, vals, op)
    return changed // k, changed % k


def _scatter_structured(
    state: np.ndarray, lids: np.ndarray, vals: np.ndarray, op: str
) -> np.ndarray:
    """min/max over structured dtypes (lexicographic field order).

    Ufuncs cannot compare structured scalars, so reduce by sorting:
    within each lid's segment of a ``(lid, fields...)`` lexsort, the
    first element is the minimum and the last the maximum.
    """
    if op not in ("min", "max"):
        raise ScatterError(f"structured dtypes support min/max, not {op!r}")
    if vals.dtype != state.dtype:
        vals = vals.astype(state.dtype)
    keys = tuple(vals[f] for f in reversed(vals.dtype.names)) + (lids,)
    order = np.lexsort(keys)
    slids = lids[order]
    starts = _segment_starts(slids)
    uniq = slids[starts]
    if op == "min":
        cand = vals[order[starts]]
    else:
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = slids.size
        cand = vals[order[ends - 1]]
    old = state[uniq]
    # Combine candidate with the prior state by sorting each {old, cand}
    # pair (structured sort is lexicographic over fields).
    pair = np.empty((uniq.size, 2), dtype=state.dtype)
    pair[:, 0] = old
    pair[:, 1] = cand
    pair.sort(axis=1)
    new = pair[:, 0] if op == "min" else pair[:, 1]
    state[uniq] = new
    return uniq[new != old]


def _segment_starts(sorted_lids: np.ndarray) -> np.ndarray:
    boundary = np.empty(sorted_lids.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_lids[1:], sorted_lids[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)
