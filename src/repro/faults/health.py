"""Rank-health watchdog: a per-rank progress ledger.

At the paper's target scale a rank that is alive but persistently slow
drags its whole BSP group at every collective.
:class:`HealthMonitor` makes that detectable: sampled at every
superstep boundary from :class:`~repro.comm.clocks.VirtualClocks` lane
deltas, a rank's *excess* is how far its compute and recovery deltas
sit above the group median (median-relative, so globally-charged costs
like checkpoint drains cancel); an EWMA of the excess against a
threshold classifies it healthy / suspect / chronic.  Transitions are
recorded as ``health`` events that surface through
``Engine.fault_events`` and on trace rows.  What to do about a chronic
rank — demote it and shrink, then grow back onto an arriving spare — is
the ``"autoscale"`` policy of :class:`~repro.faults.elastic.Recovery`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..comm.grid import check_count, check_fraction, check_positive
from ..core.hooks import Boundary, BoundaryHook
from .plan import FaultEvent

__all__ = ["RANK_HEALTH", "HealthMonitor"]

#: Health classifications, in escalation order.
RANK_HEALTH = ("healthy", "suspect", "chronic")


class HealthMonitor(BoundaryHook):
    """Per-rank progress ledger with EWMA deviation scoring.

    Attach with ``engine.attach_health(monitor)``; it fires in the
    ``observe`` boundary phase and re-baselines (:meth:`bind`) whenever
    it is attached — which includes every ``rebuild_on_grid``
    generation — and after every restore and timer reset.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in ``(0, 1]``: the weight of the newest
        excess sample.  High values react fast (the default 0.5 flags
        a repeatedly-injected straggler within two supersteps); low
        values favor sustained deviation over spikes.
    suspect_s:
        Absolute score floor, in virtual seconds: a rank is suspect
        only when its EWMA excess exceeds ``max(suspect_s,
        rel_threshold * median_delta)``.  The floor keeps scheduling
        noise at small scales from ever flagging anyone.
    rel_threshold:
        Relative component of the threshold: multiples of the group's
        median per-superstep progress delta a rank must fall behind by.
        Keeps the classifier scale-free — big graphs have big deltas.
    chronic_after:
        Consecutive suspect boundaries before a rank is classified
        chronic (and becomes eligible for demotion); an integer >= 1.

    A value outside its range, a bool, NaN or an infinite bound raises
    ``ValueError`` naming the parameter.
    """

    def __init__(
        self,
        alpha: float = 0.5,
        suspect_s: float = 1e-4,
        rel_threshold: float = 4.0,
        chronic_after: int = 3,
    ):
        check_positive(alpha, "alpha")
        check_fraction(alpha, "alpha")
        check_positive(suspect_s, "suspect_s")
        check_positive(rel_threshold, "rel_threshold", zero=True)
        self.alpha = alpha
        self.suspect_s = suspect_s
        self.rel_threshold = rel_threshold
        self.chronic_after = check_count(chronic_after, "chronic_after")
        self.n_ranks = 0
        self.scores = np.zeros(0)
        self.streaks = np.zeros(0, dtype=np.int64)
        self.statuses: list[str] = []
        self._last: Optional[dict[str, np.ndarray]] = None
        #: Transition history across all engine generations (bind
        #: resets the per-rank ledger, not this log).
        self.events: list[dict] = []

    slot = "health"
    phases = ("observe",)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        """(Re)baseline against ``engine``'s current clocks.

        Called on attach, after every ``rebuild_on_grid`` (rank count
        and identities changed), after every ``restore`` (clocks
        rewound; diffing against pre-restore samples would go
        negative) and on ``reset_timers``.  Scores, streaks, and
        statuses reset — a new grid starts healthy.
        """
        self.n_ranks = engine.n_ranks
        self.scores = np.zeros(self.n_ranks)
        self.streaks = np.zeros(self.n_ranks, dtype=np.int64)
        self.statuses = ["healthy"] * self.n_ranks
        self._last = self._sample(engine)

    def on_attach(self, engine) -> None:
        self.bind(engine)

    def on_restore(self, engine, ckpt) -> None:
        self.bind(engine)

    on_reset = on_attach

    def on_phase(self, phase: str, engine, boundary: Boundary) -> None:
        self.observe(engine, boundary.superstep)

    @staticmethod
    def _sample(engine) -> dict[str, np.ndarray]:
        lanes = engine.clocks.per_rank_lanes()
        return {"compute": lanes["compute"], "recovery": lanes["recovery"]}

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe(self, engine, superstep: int) -> list[dict]:
        """Sample one superstep boundary; returns new transition events.

        A rank's excess combines how far its compute-lane delta and its
        recovery-lane delta sit above the group medians.  Injected
        straggler stalls land in one rank's recovery lane; checkpoint
        drains land in *every* rank's, so the median-relative form
        cancels them.  Transitions (healthy → suspect → chronic, and
        back) are recorded via ``engine.record_event`` so they surface
        in ``fault_events`` and on trace rows.
        """
        if self._last is None or engine.n_ranks != self.n_ranks:
            self.bind(engine)
            return []
        now = self._sample(engine)
        d_comp = now["compute"] - self._last["compute"]
        d_rec = now["recovery"] - self._last["recovery"]
        self._last = now
        excess = np.maximum(d_comp - np.median(d_comp), 0.0) + np.maximum(
            d_rec - np.median(d_rec), 0.0
        )
        self.scores = self.alpha * excess + (1.0 - self.alpha) * self.scores
        threshold = max(
            self.suspect_s,
            self.rel_threshold * float(np.median(d_comp + d_rec)),
        )
        transitions: list[dict] = []
        for rank in range(self.n_ranks):
            if self.scores[rank] > threshold:
                self.streaks[rank] += 1
                status = (
                    "chronic"
                    if self.streaks[rank] >= self.chronic_after
                    else "suspect"
                )
            else:
                self.streaks[rank] = 0
                status = "healthy"
            if status != self.statuses[rank]:
                event = FaultEvent(
                    "health", rank, superstep, "boundary",
                    extra={"status": status, "score": float(self.scores[rank])},
                ).as_dict()
                transitions.append(event)
                engine.record_event(event)
                self.statuses[rank] = status
        self.events.extend(transitions)
        return transitions

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def status(self, rank: int) -> str:
        return self.statuses[rank]

    def chronic_ranks(self) -> list[int]:
        """Ranks currently classified chronic, worst score first."""
        chronic = [
            r for r in range(self.n_ranks) if self.statuses[r] == "chronic"
        ]
        return sorted(chronic, key=lambda r: -self.scores[r])

    def report(self) -> dict:
        """Plain-data ledger snapshot (CLI / test surface)."""
        return {
            "n_ranks": self.n_ranks,
            "statuses": list(self.statuses),
            "scores": [float(s) for s in self.scores],
            "streaks": [int(s) for s in self.streaks],
            "n_transitions": len(self.events),
        }
