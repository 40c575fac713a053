"""Rank-stacked view of an engine: every rank's state, geometry and
CSR block as single arrays.

At hundreds of ranks the blocks are tiny, and a superstep written as
``p`` per-rank closures spends its time on NumPy call overhead, not on
work.  A :class:`Fleet` lets such a step run as *one* vectorized pass
over all ranks:

* **state arena** — the one owner of every named state array: each is
  one contiguous buffer allocated for all ranks at once (rank ``r``
  owns ``buffer[base[r]:base[r + 1]]``) and ``ctx.arrays`` is a
  read-only map of the rank's slices, so checkpoints,
  the integrity ledger, fault injection, ``gather`` and ``restore``
  keep seeing ordinary per-rank arrays.  When a run ends its buffers
  are taken off the ranks but kept by name (:meth:`hide`), for the
  next run to refill instead of faulting fresh pages in;
* **stacked LIDs** — a local ID ``lid`` of rank ``r`` is addressed as
  ``base[r] + lid``, and a queue is one rank-major array of them (what
  every scalar traversal holds); a caller that works per rank joins
  its lists with :meth:`stack` and cuts a queue back with one
  ``searchsorted`` (:meth:`split`);
* **stacked CSR** — the partition's blocks are slices of one
  concatenated CSR whose targets are already stacked LIDs, so
  :meth:`expand` walks any set of rows of any ranks through the
  ordinary :func:`~repro.queueing.frontier.expand_block`, and
  :meth:`csr` is the whole fleet as one square operand for
  :func:`~repro.kernels.csr_pull` (a dense pull sweep of every rank is
  one product) — both over the partition's own ``indices``;
* **exchange plan** — the dense patterns' windows and overlap segments
  as stacked-LID slices, derived once (:meth:`exchange_plan`);
* **structure and scratch** — what the graph fixes (every cell's true
  degree, :meth:`cell_degrees`) is built once and read-only, and a
  run's temporaries that no superstep boundary sees live (a dense
  pull's operand, :meth:`scratch`) are kept for the fleet's life:
  neither is a state, so no checkpoint saves them, no ledger verifies
  them and no memflip reaches them.

A step may be fused only if its per-rank closure touched nothing but
its own rank's state and clock lane (the :meth:`Engine.map_ranks
<repro.core.engine.Engine.map_ranks>` contract): ranks own disjoint
stacked LIDs, so one pass over all of them performs, per rank, the
same operations in the same order.  See ``docs/PERF.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..comm.collectives import REDUCE_OPS
from ..graph.localmap import LocalMap
from ..graph.partition.twod import RankBlock, TwoDPartition
from ..kernels.pull import PullCSR, csr_pull
from ..queueing.frontier import Expansion, expand_block

__all__ = ["EXPAND_EDGE_BUDGET", "ExchangePlan", "Fleet"]

#: Most edges one :meth:`Fleet.expand` slice materializes.  A whole-fleet
#: expansion (bottom-up BFS scans every unvisited row of every rank)
#: would otherwise allocate graph-sized temporaries where the per-rank
#: closures it replaces held one block's worth at a time.
EXPAND_EDGE_BUDGET = 1 << 15


@dataclass(frozen=True)
class ExchangePlan:
    """The geometry of the dense patterns (paper §3.3.1, Table 2): which
    slices of a stacked state array each group's collectives touch.  A
    function of partition and grid only.

    Both tables are keyed by the axis whose groups communicate
    (``"row"`` / ``"col"``) and list the groups in
    ``Engine.row_groups()`` / ``col_groups()`` order.
    """

    #: ``[(ranks, [member's window, ...]), ...]`` — the AllReduce
    #: operands: every member's row (column) window.
    reduce: dict[str, list]
    #: ``[(ranks, [(source, [destination, ...]), ...]), ...]`` — the
    #: grouped Broadcasts that refresh the members' row (column)
    #: windows from the other axis' windows: one per non-empty overlap
    #: of the group's range with a member's other-axis range, rooted at
    #: that member (whose own window already shares the LIDs).
    broadcast: dict[str, list]


class Fleet:
    """All ranks of one partition, stacked (see module docstring)."""

    def __init__(self, partition: TwoDPartition):
        self.partition = partition
        maps = [blk.localmap for blk in partition.blocks]
        self.n_ranks = len(maps)

        def column(attr: str) -> np.ndarray:
            return np.array([getattr(lm, attr) for lm in maps], dtype=np.int64)

        #: ``N_T`` of every rank, and where its LID space starts in a
        #: stacked array (``base[-1]`` is the stacked length): the
        #: partition's ``lid_offsets``.
        self.n_total = column("n_total")
        self.base = partition.lid_offsets
        self.size = int(self.base[-1])
        self.row_start = column("row_start")
        self.row_stop = column("row_stop")
        self.col_start = column("col_start")
        self.col_stop = column("col_stop")
        #: Add to a stacked row-window (column-window) LID of rank
        #: ``r`` to get its relabeled GID; subtract to go back.
        self.row_gid_shift = self.row_start - column("row_offset") - self.base[:-1]
        self.col_gid_shift = self.col_start - column("col_offset") - self.base[:-1]
        #: ``(start, stop, shift)`` of every rank's row, then column window
        self._windows = (
            (self.row_start, self.row_stop, self.row_gid_shift),
            (self.col_start, self.col_stop, self.col_gid_shift),
        )
        self._rank_ids = np.arange(self.n_ranks, dtype=np.int64)
        #: ``name -> stacked buffer`` of every state array.
        self._arena: dict[str, np.ndarray] = {}
        #: ``name -> (buffer, per-rank views)`` of the previous run's
        #: states, off the ranks, kept for the next run to refill.
        self._kept: dict[str, tuple[np.ndarray, list]] = {}
        #: Per rank, ``name -> the rank's slice`` of every stacked buffer
        #: (what ``RankContext.arrays`` shows, read-only).
        self.views: list[dict[str, np.ndarray]] = [{} for _ in range(self.n_ranks)]
        self._row_mask: Optional[np.ndarray] = None
        self._block: Optional[RankBlock] = None
        self._degrees: Optional[np.ndarray] = None
        self._global_degrees: dict[bool, np.ndarray] = {}
        self._cell_degrees: dict[bool, np.ndarray] = {}
        self._scratch: dict[str, np.ndarray] = {}
        self._csr: dict[bool, PullCSR] = {}
        self._plan: Optional[ExchangePlan] = None

    # ------------------------------------------------------------------
    # state arena
    # ------------------------------------------------------------------
    def alloc(self, name: str, dtype, fill, width: Optional[int], charge) -> None:
        """Fill state ``name`` with ``fill`` on every rank.

        The run's buffer of that name is re-filled in place while it
        keeps its dtype and lane ``width``.  Otherwise the state enters
        the run: ``charge(bytes per LID)`` is called first — if it
        raises, no state of that name is left and every kept buffer
        stays — then a buffer :meth:`hide` kept under that name, dtype
        and width is refilled, and failing that, everything still kept
        is dropped and a new buffer made.
        """
        dtype = np.dtype(dtype)
        tail = () if width is None else (int(width),)

        def fits(buf) -> bool:
            return buf is not None and buf.dtype == dtype and buf.shape[1:] == tail

        buf = self._arena.get(name)
        if not fits(buf):
            self.free(name)
            charge(dtype.itemsize * int(np.prod(tail)))
            buf, views = self._kept.pop(name, (None, None))
            if not fits(buf):
                self._kept.clear()
                buf = np.empty((self.size,) + tail, dtype=dtype)
                bounds = self.base.tolist()
                views = [buf[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            self._arena[name] = buf
            for rank_views, view in zip(self.views, views):
                rank_views[name] = view
        buf[...] = fill

    def free(self, name: str) -> None:
        """Drop state ``name`` from every rank (nothing if it is not
        allocated)."""
        if self._arena.pop(name, None) is not None:
            for views in self.views:
                del views[name]

    def hide(self) -> list[str]:
        """End the run: take every state off the ranks but keep its
        buffer for :meth:`alloc` to refill (until :meth:`drop_kept`);
        returns the names."""
        names = list(self._arena)
        for name in names:
            views = [rank_views.pop(name) for rank_views in self.views]
            self._kept[name] = (self._arena.pop(name), views)
        return names

    def drop_kept(self) -> None:
        """Drop every buffer :meth:`hide` kept."""
        self._kept.clear()

    def buffers(self) -> list[np.ndarray]:
        """Every stacked buffer held: the run's, and those kept from the
        previous run."""
        return list(self._arena.values()) + [buf for buf, _ in self._kept.values()]

    def stacked(self, name: str) -> np.ndarray:
        """The stacked buffer of state ``name``: writing it writes every
        rank's ``ctx.arrays[name]``."""
        buf = self._arena.get(name)
        if buf is None:
            raise KeyError(
                f"no state array named {name!r} in this run; allocated "
                f"states: {sorted(self._arena)} (state is dropped when the "
                f"next run begins, Engine.reset_timers)"
            )
        return buf

    # ------------------------------------------------------------------
    # stacked queues
    # ------------------------------------------------------------------
    def ranks(self, counts: np.ndarray) -> np.ndarray:
        """Owning rank of every entry of a rank-major queue holding
        ``counts[r]`` entries of rank ``r``."""
        return np.repeat(self._rank_ids, counts)

    def rank_of(self, lids: np.ndarray) -> np.ndarray:
        """Owning rank of each stacked LID (any order)."""
        return np.searchsorted(self.base, lids, side="right") - 1

    def stack(self, per_rank: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate per-rank LID queues rank-major into stacked LIDs;
        returns ``(lids, counts)``."""
        counts = np.fromiter(
            (len(q) for q in per_rank), dtype=np.int64, count=self.n_ranks
        )
        lids = np.concatenate(per_rank).astype(np.int64, copy=False)
        return lids + np.repeat(self.base[:-1], counts), counts

    def counts(self, lids: np.ndarray) -> np.ndarray:
        """Entries per rank of rank-major stacked ``lids``."""
        return np.diff(np.searchsorted(lids, self.base))

    def split(self, lids: np.ndarray) -> list[np.ndarray]:
        """Cut rank-major stacked ``lids`` into per-rank *local* LID
        arrays (views of one array)."""
        cuts = np.searchsorted(lids, self.base)
        local = lids - np.repeat(self.base[:-1], np.diff(cuts))
        cuts = cuts.tolist()
        return [local[cuts[r] : cuts[r + 1]] for r in range(self.n_ranks)]

    def encode_queue(self, queue):
        """A queue of row LIDs — a rank-major stacked array, or per-rank
        ``(lids, lanes)`` pairs; the same cells on every rank of a row
        group — with the grid taken out, as a checkpoint keeps it: the
        original ids of the row-group leaders' entries in queue order
        (and their lanes).  :meth:`decode_queue` is the inverse."""
        laned = not isinstance(queue, np.ndarray)
        if laned:
            lanes = np.concatenate([q[1] for q in queue])
            queue = self.stack([q[0] for q in queue])[0]
        grid = self.partition.grid
        ranks = self.rank_of(queue)
        mine = np.isin(ranks, [grid.row_group_ranks(i)[0] for i in range(grid.C)])
        orig = self.partition.original_gid(queue[mine] + self.row_gid_shift[ranks[mine]])
        return (orig, lanes[mine]) if laned else orig

    def decode_queue(self, saved):
        """An :meth:`encode_queue` result as a queue on this fleet's
        partition, in the form it was saved from: each rank gets exactly
        the saved cells of its row window, each lane's LIDs ascending
        (as every queue keeps them) and the lanes interleaved as saved —
        on the saving layout, the saved queue entry for entry."""
        laned = isinstance(saved, tuple)
        orig, lanes = saved if laned else (saved, np.zeros(len(saved), np.int64))
        part = self.partition
        gids = part.perm[orig].astype(np.int64)
        group = np.searchsorted(part.row_offsets, gids, side="right") - 1
        # a group's slots keep their saved lanes, and a lane's slots
        # take that lane's cells in ascending order
        by_group = np.argsort(group, kind="stable")
        slot_group, pattern = group[by_group], lanes[by_group]
        cells = np.empty_like(gids)
        cells[np.lexsort((pattern, slot_group))] = gids[np.lexsort((gids, lanes, group))]
        cuts = np.searchsorted(slot_group, np.arange(part.row_offsets.size)).tolist()
        shift = self.row_gid_shift.tolist()
        out = []
        for r in range(self.n_ranks):
            g = part.grid.coords(r)[0]
            lids = cells[cuts[g] : cuts[g + 1]] - shift[r]
            out.append((lids - self.base[r], pattern[cuts[g] : cuts[g + 1]]) if laned else lids)
        return out if laned else np.concatenate(out)

    def row_window_max(self, values: np.ndarray) -> np.ndarray:
        """Every rank's maximum (along axis 0; ``0`` for an empty window)
        of ``values`` over the :attr:`row_mask` cells, rank-major."""
        sizes = self.row_stop - self.row_start
        out, nonempty = np.zeros((self.n_ranks,) + values.shape[1:]), sizes > 0
        if nonempty.any():
            starts = (np.cumsum(sizes) - sizes)[nonempty]
            out[nonempty] = np.maximum.reduceat(values, starts, axis=0)
        return out

    def window_counts(self, mask: np.ndarray, axis: str) -> np.ndarray:
        """Every rank's number of true cells of a stacked ``mask`` in its
        row (``axis="row"``) or column window, rank-major."""
        start, stop, shift = self._windows[axis == "col"]
        cells = np.flatnonzero(mask)
        return np.searchsorted(cells, stop - shift) - np.searchsorted(cells, start - shift)

    def row_shares(self) -> tuple[np.ndarray, np.ndarray]:
        """Every rank's share of its row window as relabeled GIDs
        ``[start, stop)``, rank-major: member ``j`` of a row group takes
        the ``j``-th of ``R`` consecutive slices of the window the group
        shares, so a group's shares tile it and every vertex lies in
        exactly one rank's share."""
        R = self.partition.grid.R
        j = self._rank_ids % R
        length = self.row_stop - self.row_start
        return (
            self.row_start + length * j // R,
            self.row_start + length * (j + 1) // R,
        )

    @property
    def row_mask(self) -> np.ndarray:
        """Boolean over stacked LIDs: is it in its rank's row window?"""
        if self._row_mask is None:
            mask = np.zeros(self.size, dtype=bool)
            for blk, lo in zip(self.partition.blocks, self.base.tolist()):
                first = lo + blk.localmap.row_offset
                mask[first : first + blk.localmap.n_row] = True
            self._row_mask = mask
        return self._row_mask

    def cells_of(self, gids: np.ndarray) -> list:
        """Where each relabeled GID ``gids[i]`` is visible: ``[(stacked
        LIDs, i)]`` of its row cells, then of its column cells,
        rank-major with ``i`` ascending within a rank."""
        cells = []
        for start, stop, shift in self._windows:
            ranks, i = np.nonzero((start[:, None] <= gids) & (gids < stop[:, None]))
            cells.append((gids[i] - shift[ranks], i))
        return cells

    def fill_windows(self, state: np.ndarray, values: np.ndarray) -> None:
        """Write ``values[gid]`` (a vector over relabeled GIDs) into the
        cell of ``gid`` in every rank's row and column window."""
        for start, stop, shift in self._windows:
            # GIDs [a, b) sit at stacked LIDs [a - d, b - d)
            for a, b, d in zip(start.tolist(), stop.tolist(), shift.tolist()):
                state[a - d : b - d] = values[a:b]

    # ------------------------------------------------------------------
    # stacked CSR
    # ------------------------------------------------------------------
    def _stacked_block(self) -> RankBlock:
        """The whole fleet as one block for ``expand_block``: rows are
        stacked LIDs (LIDs outside a row window have no edges) over the
        partition's concatenated ``indices``/``weights``, whose targets
        are stacked LIDs already (``lid_base`` 0).  Built on first use:
        one row pointer per stacked LID (half a state array while edge
        counts fit 32 bits), nothing edge-sized."""
        if self._block is None:
            part = self.partition
            degrees = np.diff(part.indptr)
            # drop the pseudo-rows between one rank's last pointer and
            # the next rank's first
            keep = np.ones(degrees.size, dtype=bool)
            keep[part.ptr_offsets[1:-1] - 1] = False
            indptr = np.zeros(
                self.size + 1,
                dtype=np.int32 if part.n_edges <= np.iinfo(np.int32).max else np.int64,
            )
            indptr[1:][self.row_mask] = degrees[keep]
            np.cumsum(indptr, out=indptr)
            self._block = RankBlock(
                rank=-1,
                id_r=-1,
                id_c=-1,
                localmap=LocalMap(0, self.size, 0, self.size),
                indptr=indptr,
                indices=part.indices,
                weights=part.weights,
            )
        return self._block

    def local_degrees(self) -> np.ndarray:
        """Local degree of every stacked LID (zero outside a row
        window): one read-only array, built on first use and kept —
        ``int32`` while edge counts fit 32 bits."""
        if self._degrees is None:
            degrees = np.diff(self._stacked_block().indptr)
            degrees.flags.writeable = False
            self._degrees = degrees
        return self._degrees

    def global_degrees(self, weighted: bool = False) -> np.ndarray:
        """Every vertex's true degree (``weighted``: edge-weight sum) by
        relabeled GID, read-only, built on first use and kept: the
        row-group sum of local degrees (paper §3.2) over the exchange
        plan's row windows, in a dense pull's operand order, so bit for
        bit what that exchange delivers."""
        degrees = self._global_degrees.get(weighted)
        if degrees is None:
            if weighted:
                local = csr_pull(self.csr(weighted=True), np.ones(self.size), "sum")
            else:
                local = self.local_degrees()
            degrees = np.concatenate([
                REDUCE_OPS["sum"](np.array([local[w] for w in windows], np.float64))
                for _, windows in self.exchange_plan().reduce["row"]
            ])
            degrees.flags.writeable = False
            self._global_degrees[weighted] = degrees
        return degrees

    def cell_degrees(self, weighted: bool = False) -> np.ndarray:
        """Every stacked cell's true degree (``weighted``: edge-weight
        sum) — the :meth:`global_degrees` of its vertex in every rank's
        row and column window — read-only, built on first use and kept:
        graph structure, charged to the devices with the CSR."""
        degrees = self._cell_degrees.get(weighted)
        if degrees is None:
            degrees = np.zeros(self.size)
            self.fill_windows(degrees, self.global_degrees(weighted))
            degrees.flags.writeable = False
            self._cell_degrees[weighted] = degrees
        return degrees

    def row_degrees(self, rows: np.ndarray) -> np.ndarray:
        """Local degree of each stacked row LID."""
        return self.local_degrees()[rows]

    def full_queue(self) -> tuple[np.ndarray, np.ndarray]:
        """Every rank's whole row window as one rank-major queue:
        ``(local degrees, rows per rank)``, what a dense sweep passes to
        ``charge_edges(None, degrees, segments=...)``."""
        return self.local_degrees()[self.row_mask], self.row_stop - self.row_start

    def csr(self, weighted: bool = False) -> PullCSR:
        """The fleet's adjacency as one ``size`` x ``size`` operand of
        :func:`~repro.kernels.csr_pull`: row ``base[r] + lid`` holds
        rank ``r``'s local edges of ``lid`` (LIDs outside a row window
        have none, so a pull over it also zeroes them), columns are
        stacked LIDs, entries are ``1.0`` or, with ``weighted``, the
        edge weights.

        Built on first use and kept for the fleet's life.  Both forms
        share the partition's ``indices`` (already stacked, in the
        operand's index dtype), so the only edge-sized array either
        adds is the unit form's data."""
        view = self._csr.get(weighted)
        if view is None:
            part = self.partition
            if weighted and part.weights is None:
                raise ValueError("a weighted pull needs an edge-weighted graph")
            view = self._csr[weighted] = PullCSR(
                self._stacked_block().indptr,
                part.indices,
                self.size,
                part.weights if weighted else None,
            )
        return view

    def expand(
        self, rows: np.ndarray, degrees: Optional[np.ndarray] = None
    ) -> Iterator[tuple[np.ndarray, Expansion]]:
        """Expand a rank-major queue of stacked row LIDs into its edges.

        Yields ``(owner, ex)`` slices: the slice's :class:`Expansion`
        over stacked LIDs (``weights`` gathered only when read) and the
        owning rank of each of its queue entries, in queue order — so
        each rank's edges appear in the order its own ``ctx.expand``
        would produce them, possibly across several slices.  A slice
        holds at most :data:`EXPAND_EDGE_BUDGET` edges (a single row
        above the budget travels alone) of at most as many queue
        entries, so temporaries stay bounded whatever the queue.
        ``degrees`` are the queue's :meth:`row_degrees`, for a caller
        that already has them.

        Rows without a local edge are dropped as soon as their degree
        is known: at hundreds of ranks most rows of a block are empty
        (two thirds at 16x16 on a scale-14 R-MAT) and they contribute
        no edge, so every slice holds what it held with them in — and a
        stretch of the queue without any edge yields nothing.
        """
        block = self._stacked_block()
        if degrees is None:
            degrees = self.row_degrees(rows)
        for first in range(0, rows.size, EXPAND_EDGE_BUDGET):
            piece = rows[first : first + EXPAND_EDGE_BUDGET]
            local = degrees[first : first + EXPAND_EDGE_BUDGET]
            nonempty = np.flatnonzero(local)
            piece, local = piece[nonempty], local[nonempty]
            ends = np.cumsum(local)
            owner = self.rank_of(piece)
            lo, done = 0, 0
            while lo < piece.size:
                hi = max(
                    lo + 1,
                    int(np.searchsorted(ends, done + EXPAND_EDGE_BUDGET, side="right")),
                )
                yield owner[lo:hi], expand_block(block, piece[lo:hi], local[lo:hi])
                lo, done = hi, int(ends[hi - 1])

    # ------------------------------------------------------------------
    # dense-exchange geometry and scratch
    # ------------------------------------------------------------------
    def scratch(self, name: str) -> np.ndarray:
        """A ``float64`` stacked buffer for temporaries named ``name``,
        made on first use and kept for the fleet's life, so a later run
        reuses its pages; its contents are whatever the last writer
        left.  Not a state (see the module docstring)."""
        buf = self._scratch.get(name)
        if buf is None:
            buf = self._scratch[name] = np.empty(self.size)
        return buf

    def exchange_plan(self) -> ExchangePlan:
        """The dense patterns' :class:`ExchangePlan`, built on first
        use and kept for the fleet's life (an engine rebuilt on another
        grid has another fleet)."""
        if self._plan is None:
            self._plan = self._plan_exchanges()
        return self._plan

    def _plan_exchanges(self) -> ExchangePlan:
        part, grid = self.partition, self.partition.grid
        bounds = {"row": part.row_offsets.tolist(), "col": part.col_offsets.tolist()}
        # stacked LID of a window's GID ``g`` on rank ``r``: g - shift[r]
        shift = {"row": self.row_gid_shift.tolist(), "col": self.col_gid_shift.tolist()}
        groups = {
            "row": [grid.row_group_ranks(i) for i in range(grid.C)],
            "col": [grid.col_group_ranks(i) for i in range(grid.R)],
        }
        reduce: dict[str, list] = {"row": [], "col": []}
        broadcast: dict[str, list] = {"row": [], "col": []}
        for axis, other in (("row", "col"), ("col", "row")):
            mine, theirs = shift[axis], shift[other]
            for g, ranks in enumerate(groups[axis]):
                gs, ge = bounds[axis][g], bounds[axis][g + 1]
                reduce[axis].append(
                    (ranks, [slice(gs - mine[r], ge - mine[r]) for r in ranks])
                )
                segments = []
                # member j of a group holds range j of the other axis
                for j, root in enumerate(ranks):
                    lo, hi = max(gs, bounds[other][j]), min(ge, bounds[other][j + 1])
                    if lo < hi:
                        dests = [
                            slice(lo - mine[r], hi - mine[r]) for r in ranks if r != root
                        ]
                        segments.append(
                            (slice(lo - theirs[root], hi - theirs[root]), dests)
                        )
                broadcast[axis].append((ranks, segments))
        return ExchangePlan(reduce, broadcast)
