"""Silent-data-corruption defense: ledger, certifiers, repair.

The communication path already checks itself (CRC32 + retry in
:meth:`~repro.faults.injector.FaultInjector.guard`) and rank-level
failures are loud (crash/straggler -> checkpoint restore or elastic
regrid).  What neither catches is *compute-side* silent data
corruption: a bit flipping in a rank's device-resident state array
between collectives propagates into a confidently wrong answer.  This
module closes that gap with three cooperating layers:

Injection
    :func:`apply_memflip` executes a ``FaultSpec(kind="memflip")``:
    it flips bits inside the target rank's *owned windows* — the
    row-window and column-window slices of every state array of the
    run (the rank's views of the fleet's stacked state,
    ``Fleet.views``), concatenated in sorted-name order —
    at a superstep boundary.  Flips land in
    replicated state by construction, which is exactly the state the
    run's correctness depends on.

Detection
    :class:`IntegrityLedger` exploits the 2D decomposition's inherent
    redundancy: after every exchange, all ranks of a row group hold
    identical row-window values and all ranks of a column group hold
    identical column-window values (the engine holds only the run's
    arrays: ``Engine.reset_timers`` frees the previous run's).  At
    (interval-matching) superstep boundaries each rank hashes its
    windows (CRC32, modeled at ``hash_bw``); the digests are exchanged
    (one small collective, modeled at ``exchange_bw``) and compared
    per group.  Any
    single-bit corruption of a replicated window breaks agreement:
    CRC32 is affine over GF(2), so the digests of two equal-length
    buffers differ by the plain polynomial remainder of their XOR,
    and the remainder of a buffer with exactly one set bit is
    ``x^k mod G`` — never zero, because the generator ``G`` has a
    nonzero constant term and so divides no power of ``x``.
    (Multi-bit differences collide with probability about ``2^-32``.)
    The ledger keeps a rolling history of verified boundaries; the
    *suspect window* after a mismatch is everything since the last
    verified boundary.  Verification time is charged to the
    ``certify`` clock lane.

    That is what the *modeled* machine does and is charged for.  On
    the host every replica of a window lives in the same address
    space, so the ledger reaches the same digest table by comparison
    (:meth:`IntegrityLedger._collect_digests`): per ``(array, axis,
    group)`` one member's window is hashed and every other member's
    window is byte-compared against it; byte-equal windows have equal
    CRCs, so an equal member takes the representative's CRC word and
    only a member that differs is hashed itself.  Every byte of every
    window is still read at every verified boundary — an SDC is by
    definition a change nobody reported, so there is no "clean
    window" to skip.

    Per-algorithm *certifiers* (:func:`certify_bfs`,
    :func:`certify_sssp`, :func:`certify_cc`,
    :func:`certify_pagerank`) are the semantic second layer: one
    modeled cross-rank exchange of the final values, then a global
    invariant check (parent-edge existence, relaxation slack,
    cut-edge label agreement, mass conservation).  They catch what a
    hash cannot *localize* — a wrong answer that is internally
    consistent across replicas (e.g. corruption that propagated
    through a reduction before the next verification) — and they run
    after repair as the end-to-end seal.

Repair
    On group disagreement the ledger localizes the culprit (the
    intersection of mismatching row and column groups), records a
    structured ``integrity`` event, and raises
    :class:`IntegrityViolation` — a :class:`RankFailure` subclass, so
    every existing recovery path treats detected corruption like a
    crash at a boundary: restore the last checkpoint and recompute
    the suspect window.  Because the ledger verifies at every
    boundary where a checkpoint is due, **saved checkpoints are always
    verified-good** — rollback never resurrects corrupt state.  A
    repair budget bounds the loop; exhausting it (or having no
    checkpoint to roll back to) raises :class:`IntegrityFailure`.
    Since memflip specs are one-shot, the recompute is clean, and
    restore rewinds clocks/counters exactly, a repaired run is
    **bit-identical** to a fault-free run.

Limitations (documented, not hidden): window replication requires a
grid with ``R >= 2`` *and* ``C >= 2`` — on a 1xC or Rx1 grid one axis
has single-member groups and corruption there is only caught by the
certifiers.  With ``interval > 1`` corruption can propagate through a
reduction before the next verification, after which all replicas
agree on the wrong value; the ledger then stays silent and only a
certifier can flag the run.  The SDC campaign therefore verifies at
every boundary.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..comm.grid import check_count, check_positive
from ..core.hooks import Boundary, BoundaryHook
from .injector import RankFailure
from .plan import FaultEvent

__all__ = [
    "IntegrityLedger",
    "IntegrityViolation",
    "IntegrityFailure",
    "CertificationReport",
    "apply_memflip",
    "certify_bfs",
    "certify_sssp",
    "certify_cc",
    "certify_pagerank",
]

#: Modeled fixed cost of one digest/certificate exchange (seconds).
CERTIFY_LATENCY_S = 2e-5
#: Modeled device hash throughput (CRC over resident state), bytes/s.
CERTIFY_HASH_BW = 50e9
#: Modeled network throughput for digest/value exchanges, bytes/s.
CERTIFY_EXCHANGE_BW = 12.5e9


class IntegrityViolation(RankFailure):
    """The ledger caught state corruption at a superstep boundary.

    A :class:`~repro.faults.injector.RankFailure` subclass raised
    *before* the boundary's checkpoint is saved, so the latest
    checkpoint predates the damage and the standard recovery path
    (restore + recompute) repairs the run.  ``suspects`` lists the
    candidate ranks (singleton when localization succeeded) and
    ``window`` the ``(first, last)`` supersteps that must recompute.
    """

    def __init__(
        self,
        rank: Optional[int],
        superstep: int,
        suspects: tuple[int, ...] = (),
        window: tuple[int, int] = (0, 0),
    ):
        super().__init__(
            rank,
            superstep,
            collective="boundary",
            fault_kind="integrity",
        )
        self.suspects = suspects
        self.window = window


class IntegrityFailure(RuntimeError):
    """Corruption detected but not repairable.

    Raised when the repair budget is exhausted, when there is no
    verified checkpoint to roll back to, or by a certifier whose
    end-of-run invariant check failed (certifiers cannot repair:
    by result time every checkpoint may postdate the damage).
    Certifier failures carry the failing
    :class:`CertificationReport` as ``report``.
    """

    def __init__(
        self, message: str, report: Optional["CertificationReport"] = None
    ):
        super().__init__(message)
        self.report = report


# ----------------------------------------------------------------------
# injection
# ----------------------------------------------------------------------
def _owned_segments(ctx) -> list[np.ndarray]:
    """The rank's replicated windows: row- and column-window slices of
    every state array of the run, in sorted-name order — contiguous
    views of the rank's arrays."""
    segments = []
    for _name, arr in sorted(ctx.arrays.items()):
        segments.append(arr[ctx.row_slice])
        segments.append(arr[ctx.col_slice])
    return segments


def apply_memflip(ctx, spec) -> int:
    """Flip ``spec.count`` consecutive bits (starting at ``spec.bit``,
    wrapped) in ``ctx``'s owned state windows; returns bits flipped.

    The bit index addresses the concatenated byte stream (C order) of
    the rank's row-window and column-window segments (the run's
    arrays, sorted by name) — corruption lands in replicated state the
    run reads, which is what the :class:`IntegrityLedger` covers.
    Each flip goes through a one-element view of the rank's array, so
    it reaches the stacked buffer.  No state allocated by the run
    means nothing to flip (returns 0).
    """
    segments = _owned_segments(ctx)
    total_bits = sum(s.nbytes for s in segments) * 8
    if total_bits == 0:
        return 0
    flipped = 0
    for k in range(spec.count):
        bit = (spec.bit + k) % total_bits
        for seg in segments:
            nbits = seg.nbytes * 8
            if bit < nbits:
                elem, byte = divmod(bit // 8, seg.itemsize)
                # basic slicing: a view; one element is always contiguous
                cell = seg[
                    tuple(slice(i, i + 1) for i in np.unravel_index(elem, seg.shape))
                ]
                cell.view(np.uint8).reshape(-1)[byte] ^= np.uint8(1 << (bit % 8))
                flipped += 1
                break
            bit -= nbits
    return flipped


# ----------------------------------------------------------------------
# detection: the ledger
# ----------------------------------------------------------------------
_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _window_bits(win: np.ndarray) -> np.ndarray:
    """``win``'s bytes in C order as unsigned integers (of the
    element width, ``uint8`` for wider elements) — bits, not values:
    NaN payloads and ``-0.0`` vs ``0.0`` are differences.  A view:
    every window of a 1-D or lane state is contiguous."""
    win = np.ascontiguousarray(win)
    return win.view(_UNSIGNED.get(win.itemsize, np.uint8))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Do two :func:`_window_bits` views hold the same byte stream?
    (Same unsigned type and shape is the same layout.)"""
    return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())


def _group_windows(engine):
    """Walk the run's replicated state, read-only: yield ``(name,
    members)`` for every state array of every row group, then of every
    column group — ``members`` the ``(rank, window bits)`` of the
    group's ranks, in group order (every rank holds every state).  All
    members of a group are replicas of one window; a ``1 x p`` /
    ``p x 1`` grid has single-member groups on one axis.  The windows
    are the dense AllReduce operands of the fleet's exchange plan,
    slices of its stacked state."""
    fleet = engine.fleet
    names = sorted(fleet.views[0])
    plan = fleet.exchange_plan().reduce
    for axis in ("row", "col"):
        for ranks, windows in plan[axis]:
            for name in names:
                state = fleet.stacked(name)
                yield name, [
                    (r, _window_bits(state[window])) for r, window in zip(ranks, windows)
                ]


@dataclass
class LedgerRow:
    """One verified superstep boundary."""

    superstep: int
    ok: bool
    #: CRC32 over all per-rank digests — a run fingerprint.
    fingerprint: int
    suspects: tuple[int, ...] = ()


class IntegrityLedger(BoundaryHook):
    """Rolling state-integrity ledger over superstep boundaries.

    Attach with ``engine.attach_integrity(ledger)``; it fires in the
    ``verify`` boundary phase — after planned memflips land and
    *before* the boundary's checkpoint is saved, so every checkpoint
    the run keeps is verified-good.

    Parameters
    ----------
    interval:
        Verify every ``interval``-th boundary.  Regardless of the
        interval, any boundary about to save a checkpoint is verified
        (checkpoint soundness).  ``interval > 1`` trades detection
        lag for hash cost — see the module docstring for why lag can
        turn detectable corruption into certifier-only corruption.
    repair_budget:
        Detected violations beyond this count raise
        :class:`IntegrityFailure` instead of
        :class:`IntegrityViolation` (a persistently flipping device
        should be demoted, not endlessly repaired).  ``interval`` is an
        integer >= 1 and ``repair_budget`` one >= 0: a float or a bool
        raises ``ValueError``.
    latency_s / hash_bw / exchange_bw:
        Cost model of one verification: ``latency_s +
        max_rank_window_bytes / hash_bw + digest_bytes /
        exchange_bw`` charged to every rank's ``certify`` lane
        (group-synchronizing, like all collectives).  ``latency_s`` is a
        finite real >= 0, the rates finite positive reals; anything
        else raises ``ValueError`` naming the parameter.
    """

    def __init__(
        self,
        interval: int = 1,
        repair_budget: int = 2,
        latency_s: float = CERTIFY_LATENCY_S,
        hash_bw: float = CERTIFY_HASH_BW,
        exchange_bw: float = CERTIFY_EXCHANGE_BW,
    ):
        self.interval = check_count(interval, "interval")
        self.repair_budget = check_count(repair_budget, "repair_budget", minimum=0)
        check_positive(latency_s, "latency_s", zero=True)
        check_positive(hash_bw, "hash_bw")
        check_positive(exchange_bw, "exchange_bw")
        self.latency_s = latency_s
        self.hash_bw = hash_bw
        self.exchange_bw = exchange_bw
        self.rows: list[LedgerRow] = []
        self.repairs = 0
        self._last_good = 0
        #: Host work since the last :meth:`reset` — exact counts:
        #: windows CRC-ed, windows byte-compared against their group's
        #: representative, bytes CRC-ed.
        self.stats = dict.fromkeys(
            ("windows_hashed", "windows_compared", "bytes_hashed"), 0
        )

    slot = "integrity"
    phases = ("verify",)

    # -- engine hooks (see repro.core.hooks) ----------------------------
    def on_phase(self, phase: str, engine, boundary: Boundary) -> None:
        mgr = engine.checkpoints
        self.on_boundary(
            engine,
            boundary.superstep,
            checkpoint_due=mgr is not None
            and boundary.state is not None
            and mgr.due(boundary.superstep),
        )

    def on_restore(self, engine, ckpt) -> None:
        # Drop ledger rows from the abandoned attempt; the restored
        # clocks already erased its transient certify charges.
        self.rewind(ckpt.superstep)

    def on_reset(self, engine) -> None:
        self.reset()

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Fresh run (``Engine.reset_timers``): clear history, budget
        consumption and :attr:`stats`."""
        self.rows.clear()
        self.repairs = 0
        self._last_good = 0
        for key in self.stats:
            self.stats[key] = 0

    def rewind(self, superstep: int) -> None:
        """Restore rewound the run to ``superstep``
        (``Engine.restore``): drop ledger rows from the abandoned
        attempt.  ``repairs`` deliberately survives — the budget is
        per run, not per attempt."""
        self.rows = [r for r in self.rows if r.superstep <= superstep]
        self._last_good = min(self._last_good, superstep)

    # -- verification ---------------------------------------------------
    def on_boundary(self, engine, superstep: int, checkpoint_due: bool = False):
        """Verify state integrity at a superstep boundary.

        Verifies when the interval matches *or* a checkpoint is about
        to be saved.  Charges the modeled
        verification cost, appends a ledger row, and on group
        disagreement records an ``integrity`` event and raises.
        """
        if superstep % self.interval != 0 and not checkpoint_due:
            return None
        digests, hashed_bytes = self._collect_digests(engine)
        self._charge(engine, hashed_bytes, len(digests))
        suspects = self._disagreements(engine, digests)
        fingerprint = zlib.crc32(
            b"".join(
                d.to_bytes(4, "little")
                for rank_digests in digests
                for pair in sorted(rank_digests.items())
                for d in pair[1]
            )
        )
        row = LedgerRow(
            superstep=superstep,
            ok=not suspects,
            fingerprint=fingerprint,
            suspects=tuple(sorted(suspects)),
        )
        self.rows.append(row)
        if not suspects:
            self._last_good = superstep
            return row
        # Disagreement: localize, record, and hand off to recovery.
        window = (self._last_good + 1, superstep)
        self.repairs += 1
        rank = suspects[0] if len(suspects) == 1 else None
        engine.record_event(
            FaultEvent(
                "integrity", rank, superstep, "boundary",
                fatal=self.repairs > self.repair_budget,
                extra={
                    "suspects": [int(s) for s in suspects],
                    "window": [int(window[0]), int(window[1])],
                    "repairs": self.repairs,
                },
            ).as_dict()
        )
        if self.repairs > self.repair_budget:
            raise IntegrityFailure(
                f"integrity repair budget exhausted: violation "
                f"{self.repairs} at superstep {superstep} exceeds "
                f"budget {self.repair_budget} (suspect ranks "
                f"{sorted(suspects)})"
            )
        mgr = engine.checkpoints
        if mgr is None or mgr.latest() is None:
            raise IntegrityFailure(
                f"state corruption detected at superstep {superstep} "
                f"(suspect ranks {sorted(suspects)}) but no verified "
                f"checkpoint exists to roll back to"
            )
        raise IntegrityViolation(
            rank, superstep, suspects=row.suspects, window=window
        )

    # -- internals ------------------------------------------------------
    def _collect_digests(self, engine):
        """CRC32 of each state array's row/col window on every rank:
        ``(digests, hashed_bytes)`` with ``digests[rank][name] ==
        (row_crc, col_crc)`` and ``hashed_bytes`` the largest per-rank
        window total (what the modeled machine hashes).

        Reached by comparison: per group and array the first member's
        window is hashed; every other member's window is compared
        against it bit for bit and takes that CRC word when equal
        (equal bytes have equal CRCs), or is hashed itself when not —
        so the table is exactly what hashing every window yields.
        One pass over the groups, not one closure per rank: the compare
        is cross-rank by nature.
        """
        digests: list[dict] = [{} for _ in range(engine.n_ranks)]
        nbytes = [0] * len(digests)
        stats = self.stats
        for name, members in _group_windows(engine):
            first = members[0][1]
            hashed = [first]
            words = [zlib.crc32(first)]
            for _rank, win in members[1:]:
                if _same_bits(win, first):
                    words.append(words[0])
                else:
                    hashed.append(win)
                    words.append(zlib.crc32(win))
            stats["windows_hashed"] += len(hashed)
            stats["windows_compared"] += len(members) - 1
            stats["bytes_hashed"] += sum(win.nbytes for win in hashed)
            for (rank, win), word in zip(members, words):
                nbytes[rank] += win.nbytes
                # the row pass comes first: (row_crc, col_crc)
                digests[rank][name] = digests[rank].get(name, ()) + (word,)
        return digests, max(nbytes, default=0)

    def _charge(self, engine, hashed_bytes: int, n_ranks: int) -> None:
        # Hashing is bandwidth-bound on the slowest (largest-window)
        # rank; the digest exchange is an allgather of one small table
        # per rank (modeled as 8 bytes of CRC words per rank).
        seconds = (
            self.latency_s
            + hashed_bytes / self.hash_bw
            + (8.0 * max(1, n_ranks)) / self.exchange_bw
        )
        engine.clocks.charge("certify", range(engine.n_ranks), seconds)

    def _disagreements(self, engine, digests) -> list[int]:
        """Ranks whose window digests disagree with their groups.

        For every (array, axis, group) the member digests must be
        identical.  Within a group the minority digest marks the
        suspects (on a 2-member tie, both members).  The returned set
        is the intersection of row-axis and column-axis suspects when
        both axes fired (a single corrupt rank sits in exactly one
        row group and one column group), else the union.
        """
        row_suspects: set[int] = set()
        col_suspects: set[int] = set()
        for axis, groups, bucket in (
            (0, engine.row_groups(), row_suspects),
            (1, engine.col_groups(), col_suspects),
        ):
            for _gid, ranks in groups:
                if len(ranks) < 2:
                    continue
                names = set()
                for r in ranks:
                    names.update(digests[r])
                for name in names:
                    votes: dict[int, list[int]] = {}
                    for r in ranks:
                        if name not in digests[r]:
                            continue
                        votes.setdefault(digests[r][name][axis], []).append(r)
                    if len(votes) <= 1:
                        continue
                    majority = max(len(v) for v in votes.values())
                    minority = [
                        r
                        for members in votes.values()
                        if len(members) < majority
                        for r in members
                    ]
                    bucket.update(minority if minority else ranks)
        if row_suspects and col_suspects:
            both = row_suspects & col_suspects
            return sorted(both if both else row_suspects | col_suspects)
        return sorted(row_suspects | col_suspects)


# ----------------------------------------------------------------------
# certifiers
# ----------------------------------------------------------------------
@dataclass
class CertificationReport:
    """Outcome of one end-of-run result certification."""

    algo: str
    ok: bool
    checks: dict[str, bool] = field(default_factory=dict)
    detail: str = ""
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "algo": self.algo,
            "ok": self.ok,
            "checks": dict(self.checks),
            "detail": self.detail,
            "seconds": self.seconds,
        }


def _charge_certifier(engine, nbytes: int) -> float:
    """Model one cross-rank exchange of the certified values and
    charge it to every rank's ``certify`` lane."""
    seconds = CERTIFY_LATENCY_S + nbytes / CERTIFY_EXCHANGE_BW
    engine.clocks.charge("certify", range(engine.n_ranks), seconds)
    return seconds


def _seal(algo: str, checks: dict[str, bool], detail: str, seconds: float):
    report = CertificationReport(
        algo=algo,
        ok=all(checks.values()),
        checks=checks,
        detail=detail,
        seconds=seconds,
    )
    if not report.ok:
        failing = ", ".join(k for k, v in checks.items() if not v)
        raise IntegrityFailure(
            f"{algo} certification failed: {failing}"
            + (f" ({detail})" if detail else ""),
            report=report,
        )
    return report


def _edge_endpoints(graph):
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64), graph.degrees())
    return src, graph.indices.astype(np.int64)


def certify_bfs(engine, parents, levels, root) -> CertificationReport:
    """Certify a BFS result: parent-edge existence + level consistency.

    Invariants (original GID space, ``-1`` = unreachable):

    * the root is its own parent at level 0;
    * a vertex is reached iff it has a level;
    * every reached non-root vertex's parent is an actual neighbor;
    * ``level[v] == level[parent[v]] + 1`` for reached non-root ``v``.
    """
    g = engine.graph
    seconds = _charge_certifier(engine, parents.nbytes + levels.nbytes)
    parents = np.asarray(parents)
    levels = np.asarray(levels)
    reached = parents >= 0
    src, dst = _edge_endpoints(g)
    has_parent_edge = np.zeros(g.n_vertices, dtype=bool)
    sel = parents[src] == dst
    has_parent_edge[src[sel]] = True
    non_root = reached.copy()
    non_root[root] = False
    level_ok = levels[non_root] == levels[parents[non_root]] + 1
    checks = {
        "root": bool(parents[root] == root and levels[root] == 0),
        "reach-consistent": bool(np.array_equal(reached, levels >= 0)),
        "parent-edge": bool(np.all(has_parent_edge[non_root])),
        "level-consistent": bool(np.all(level_ok)),
    }
    bad = int(np.count_nonzero(~has_parent_edge[non_root])) + int(
        np.count_nonzero(~level_ok)
    )
    detail = f"{bad} violating vertices" if bad else ""
    return _seal("bfs", checks, detail, seconds)


def certify_sssp(engine, dist, root) -> CertificationReport:
    """Certify an SSSP result: relaxation slack >= 0 on every edge.

    At a fixed point of min-relaxation, ``dist[v] <= dist[u] + w``
    holds for every edge ``(u, v, w)`` with finite ``dist[u]`` — the
    run computed ``dist[v]`` as a minimum over exactly these
    candidates, in the same floating-point operations, so the check
    is exact (no epsilon).
    """
    g = engine.graph
    if not g.is_weighted:
        raise ValueError("certify_sssp needs a weighted graph")
    seconds = _charge_certifier(engine, dist.nbytes)
    dist = np.asarray(dist)
    src, dst = _edge_endpoints(g)
    du = dist[src]
    finite = np.isfinite(du)
    slack = du[finite] + g.weights[finite] - dist[dst[finite]]
    checks = {
        "root": bool(dist[root] == 0.0),
        "slack": bool(np.all(slack >= 0.0)),
    }
    n_bad = int(np.count_nonzero(slack < 0.0))
    detail = f"{n_bad} over-tight edges" if n_bad else ""
    return _seal("sssp", checks, detail, seconds)


def certify_cc(engine, labels) -> CertificationReport:
    """Certify a connected-components result: label agreement across
    every edge (cut edges included — the gathered vector spans all
    partitions) plus canonical min-labeling."""
    g = engine.graph
    seconds = _charge_certifier(engine, labels.nbytes)
    labels = np.asarray(labels)
    src, dst = _edge_endpoints(g)
    agree = labels[src] == labels[dst]
    checks = {
        "edge-agreement": bool(np.all(agree)),
        "canonical": bool(
            np.all(labels <= np.arange(g.n_vertices))
            and np.all(labels[labels] == labels)
        ),
    }
    n_bad = int(np.count_nonzero(~agree))
    detail = f"{n_bad} disagreeing edges" if n_bad else ""
    return _seal("cc", checks, detail, seconds)


def certify_pagerank(
    engine,
    pr,
    damping: float = 0.85,
    personalization=None,
    mass_tol: float = 1e-9,
    resid_tol: Optional[float] = 1e-2,
) -> CertificationReport:
    """Certify a PageRank result: mass conservation + residual bound.

    * **mass**: teleport + damped propagation conserve probability
      mass, so ``sum(pr) == 1`` up to float accumulation noise
      (``mass_tol``).
    * **non-negative**: ranks are probabilities.
    * **residual**: one more power-iteration step (same formula the
      run used: symmetric pull + dangling reinjection) must move the
      vector by at most ``resid_tol`` in max-norm.  A loose bound —
      the run may stop before convergence — but a flipped exponent
      or sign shifts the residual by orders of magnitude.
      ``resid_tol=None`` skips the check (weighted runs, whose
      spread the uniform model does not describe).
    """
    g = engine.graph
    seconds = _charge_certifier(engine, pr.nbytes)
    pr = np.asarray(pr, dtype=np.float64)
    n = g.n_vertices
    if personalization is not None:
        tele = np.asarray(personalization, dtype=np.float64)
        tele = tele / tele.sum()
    else:
        tele = np.full(n, 1.0 / n)
    deg = g.degrees().astype(np.float64)
    contrib = np.divide(pr, deg, out=np.zeros_like(pr), where=deg > 0)
    acc = np.zeros(n)
    src, dst = _edge_endpoints(g)
    np.add.at(acc, src, contrib[dst])
    dangling = float(pr[deg == 0].sum())
    expected = (1.0 - damping) * tele + damping * (acc + dangling * tele)
    residual = float(np.abs(pr - expected).max(initial=0.0))
    mass_err = abs(float(pr.sum()) - 1.0)
    checks = {
        "mass": bool(mass_err <= mass_tol),
        "non-negative": bool(np.all(pr >= 0.0)),
    }
    if resid_tol is not None:
        checks["residual"] = bool(residual <= resid_tol)
    detail = f"mass_err={mass_err:.3e} residual={residual:.3e}"
    return _seal("pagerank", checks, detail, seconds)
