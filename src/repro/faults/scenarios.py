"""Graded fault campaigns: named fault plans + recovery validation.

:data:`CAMPAIGNS` declares the four campaign kinds behind ``python -m
repro faults`` — ``campaign`` (crash / retry / bit-flip / straggler,
resumed in place), ``elastic`` (permanent rank loss, regrid onto the
survivors), ``autoscale`` (watchdog demotion and grow-back) and ``sdc``
(silent memory corruption, ledger-detected and rolled back) — as
tables of small, fixed scenarios.  :func:`run_case` runs one (scenario,
algorithm) pair twice on identically configured engines, fault-free
and faulted under :func:`~repro.faults.elastic.drive_elastic` with the
campaign's recovery, and grades the outcome:

``recovered`` / ``regridded`` / ``repaired``
    The run failed, recovered the campaign's way, and finished.  In
    place, the resumed run must be **bit-identical** to the fault-free
    reference — values, communication counters, virtual clocks —
    because a crash aborts a collective *before* it charges anything,
    a detected flip is raised *before* the boundary's checkpoint is
    saved, and restore rewinds to the previous boundary exactly.
    After a regrid, values are bit-identical for the monotone
    algorithms and within ~1 ulp for PageRank, whose sum reductions
    are sensitive to the operand grouping a new grid induces (see
    ``docs/ROBUSTNESS.md``).
``completed``
    The run absorbed its faults (retries, stalls, held spares) without
    a recovery.  Values must still match; virtual time may differ —
    recovery cost is the measurement.
``unrecovered`` / ``unrepaired``
    Nothing to recover from, or the recovery budget ran out.  The
    failing grade: the CLI exits nonzero when any case ends here.
``diverged``
    The faulted run finished with different values — the fault
    machinery corrupted the computation.  Always a bug.

Both runs attach the same checkpoint (and ledger) configuration so
their drain and verification costs cancel out of the comparison.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..algorithms import bfs, connected_components, pagerank, sssp
from .checkpoint import CheckpointManager
from .elastic import ElasticUnrecoverable, Recovery, drive_elastic
from .health import HealthMonitor
from .injector import RankFailure
from .integrity import (
    IntegrityFailure,
    IntegrityLedger,
    certify_bfs,
    certify_cc,
    certify_pagerank,
    certify_sssp,
)
from .plan import FaultPlan, FaultSpec

__all__ = [
    "ALGOS",
    "WEIGHTED_ALGOS",
    "Campaign",
    "CAMPAIGNS",
    "CaseResult",
    "run_case",
    "run_campaign",
]

#: Resume-capable runners ``run(engine, resume)`` and result certifiers
#: ``certify(engine, result)``, keyed by the paper's abbreviations.
ALGOS: dict[str, tuple[Callable[..., Any], Callable[..., Any]]] = {
    "BFS": (
        lambda engine, resume: bfs(engine, root=0, resume=resume),
        lambda engine, res: certify_bfs(
            engine, res.values, res.extra["levels"], 0
        ),
    ),
    "PR": (
        lambda engine, resume: pagerank(engine, iterations=10, resume=resume),
        lambda engine, res: certify_pagerank(engine, res.values),
    ),
    "CC": (
        lambda engine, resume: connected_components(engine, resume=resume),
        lambda engine, res: certify_cc(engine, res.values),
    ),
    "SSSP": (
        lambda engine, resume: sssp(engine, root=0, resume=resume),
        lambda engine, res: certify_sssp(engine, res.values, 0),
    ),
}

#: Algorithms that need an edge-weighted graph.
WEIGHTED_ALGOS = ("SSSP",)


@dataclass
class CaseResult:
    """Outcome of one (scenario, algorithm) pair of any campaign.

    Every campaign fills the same record; ``Campaign.report`` names the
    fields its report rows carry.
    """

    kind: str
    scenario: str
    algo: str
    #: recovered | regridded | repaired | completed | unrecovered |
    #: unrepaired | diverged
    status: str
    ok: bool = False
    values_equal: Optional[bool] = None
    values_close: Optional[bool] = None
    counters_equal: Optional[bool] = None
    clocks_equal: Optional[bool] = None
    #: Every injected memflip was caught by the ledger (``sdc``).
    detected: bool = False
    repairs: int = 0
    n_regrids: int = 0
    expected_regrids: Optional[int] = None
    rank_delta: int = 0
    expected_rank_delta: Optional[int] = None
    n_demotions: int = 0
    n_grows: int = 0
    n_holds: int = 0
    grid_trail: list = field(default_factory=list)
    policy: str = ""
    recovery_s: float = 0.0
    regrid_s: float = 0.0
    regrid_fraction: float = 0.0
    certify_s: float = 0.0
    health: dict = field(default_factory=dict)
    fault_events: list[dict] = field(default_factory=list)
    error: str = ""

    @property
    def n_fault_events(self) -> int:
        return len(self.fault_events)

    def as_dict(self) -> dict:
        return {
            name: getattr(self, name) for name in CAMPAIGNS[self.kind].report
        }


@dataclass(frozen=True)
class Campaign:
    """One campaign kind, as data."""

    #: name -> spec: the planned faults (``plan``, a list of
    #: :class:`FaultSpec`), knobs for ``recovery``, and what a healthy
    #: recovery shows (``expected_regrids``, ...).
    scenarios: dict[str, dict]
    #: The :class:`~repro.faults.elastic.Recovery` a failure goes to.
    recovery: Callable[[dict], Recovery]
    #: :class:`CaseResult` fields of a report row, and the report's
    #: campaign-level counters (see :data:`_TOTALS`), both in order.
    report: tuple[str, ...]
    totals: tuple[str, ...]
    #: Default algorithm order of :func:`run_campaign`.
    algos: tuple[str, ...] = ("BFS", "PR", "CC")
    #: Status of a case that recovered at least once / that could not.
    recovered: str = "regridded"
    failed: str = "unrecovered"
    #: Scenarios left out of the default (``all``) campaign.
    optional: tuple[str, ...] = ()
    max_retries: int = 4
    #: State-integrity campaign: both engines carry an every-boundary
    #: :class:`IntegrityLedger`, every run certifies its final answer
    #: (the end-to-end seal), and a healthy case must show *detection*
    #: (an ``integrity`` event per corrupted boundary — no silent
    #: divergence) and *bit-identical repair* (values, counters, and
    #: every clock lane equal to the fault-free run).
    integrity: bool = False

    @property
    def default_scenarios(self) -> tuple[str, ...]:
        return tuple(s for s in self.scenarios if s not in self.optional)


_ROW_HEAD = ("scenario", "algo", "status", "ok")
_REGRID_TOTALS = ("unrecovered", "diverged", "regrids")

CAMPAIGNS: dict[str, Campaign] = {
    # Supersteps are 1-based; ranks assume at least a 2x2 grid.
    "campaign": Campaign(
        scenarios={
            "crash-recover": dict(plan=[FaultSpec("crash", 2, rank=1)]),
            "transient-retry": dict(plan=[FaultSpec("transient", 1, count=2)]),
            "bitflip-detect": dict(plan=[FaultSpec("corruption", 2, bit=7)]),
            "straggler-drag": dict(
                plan=[
                    FaultSpec("straggler", 1, rank=0, delay_s=5e-4),
                    FaultSpec("straggler", 2, rank=2, delay_s=1e-3),
                ]
            ),
            # The deliberate failure (run without checkpoints): select
            # it explicitly to verify the failing exit path.
            "crash-unrecovered": dict(
                plan=[FaultSpec("crash", 2, rank=0)],
                checkpointed=False,
            ),
        },
        optional=("crash-unrecovered",),
        recovery=lambda spec: Recovery(max_recoveries=1),
        recovered="recovered",
        report=_ROW_HEAD
        + ("values_equal", "counters_equal", "clocks_equal")
        + ("n_fault_events", "fault_events", "recovery_s", "error"),
        totals=("unrecovered",),
    ),
    # Each scenario names the grid policy handling its losses and how
    # many regrids a healthy recovery performs.  Ranks assume a grid of
    # at least 4 ranks.
    "elastic": Campaign(
        scenarios={
            # One permanent loss mid-run; all survivors regrid to the
            # most square factor pair.
            "crash-shrink": dict(
                plan=[FaultSpec("crash", 2, rank=1)],
                policy="prefer-square",
                expected_regrids=1,
            ),
            # Same loss absorbed by a hot spare: the grid never
            # changes, so even PageRank stays bit-exact.
            "crash-spare": dict(
                plan=[FaultSpec("crash", 2, rank=1)],
                policy="spare-pool:1",
                expected_regrids=1,
            ),
            # Two losses in consecutive supersteps: the second crash
            # hits the already-shrunk grid, exercising
            # regrid-of-a-regridded layout.
            "double-crash-cascade": dict(
                plan=[FaultSpec("crash", 2, rank=1), FaultSpec("crash", 3, rank=2)],
                policy="prefer-square",
                expected_regrids=2,
            ),
            # Loss close to convergence: almost all work is done, so
            # the regrid cost dominates the remaining compute.
            "crash-at-convergence-tail": dict(
                plan=[FaultSpec("crash", 3, rank=2)],
                policy="prefer-square",
                expected_regrids=1,
            ),
        },
        recovery=lambda spec: Recovery(spec["policy"]),
        report=_ROW_HEAD
        + ("values_equal", "values_close", "n_regrids", "expected_regrids")
        + ("grid_trail", "policy", "regrid_s", "regrid_fraction")
        + ("fault_events", "error"),
        totals=_REGRID_TOTALS,
        max_retries=2,
    ),
    # The health watchdog + bidirectional elastic loop.  Tuned to the
    # campaign dataset on a 4-rank grid, where BFS — the shortest run —
    # finishes in 3 supersteps: detection evidence must accumulate by
    # boundary 2 (two 2 s stalls against ~0.1 s/superstep natural
    # deltas make the straggler unambiguous at ``chronic_after=2``) and
    # spares arrive at superstep 3, the last boundary every algorithm
    # still reaches.  The grade pins the regrid count *and* the net
    # rank delta, so a scenario that was supposed to return to full
    # strength (or hold) failing to is a failure even when values agree.
    "autoscale": Campaign(
        scenarios={
            # A rank stalls 2 s in two consecutive supersteps: suspect
            # at boundary 1, chronic at boundary 2, demoted (soft
            # failure) and the run continues on the squarest 3-rank
            # grid.
            "chronic-straggler-demote": dict(
                plan=[
                    FaultSpec("straggler", 1, rank=1, delay_s=2.0),
                    FaultSpec("straggler", 2, rank=1, delay_s=2.0),
                ],
                monitor=dict(chronic_after=2),
                expected_regrids=1,
                expected_rank_delta=-1,
            ),
            # A hard crash shrinks the grid; a replacement arrives one
            # superstep later and the run grows back to full strength.
            "spare-arrival-grow": dict(
                plan=[FaultSpec("crash", 2, rank=1), FaultSpec("recover", 3)],
                expected_regrids=2,
                expected_rank_delta=0,
            ),
            # The full loop: demote a chronic straggler, grow back onto
            # the arriving spare, and shrug off a *new* straggler on
            # the grown grid — the demotion budget is spent, so the
            # oscillation guard holds the grid steady.
            "demote-then-grow-back": dict(
                plan=[
                    FaultSpec("straggler", 1, rank=1, delay_s=2.0),
                    FaultSpec("straggler", 2, rank=1, delay_s=2.0),
                    FaultSpec("recover", 3),
                    FaultSpec("straggler", 3, rank=0, delay_s=2.0),
                ],
                monitor=dict(chronic_after=2),
                expected_regrids=2,
                expected_rank_delta=0,
            ),
            # A spare arrives while the run is about to converge:
            # extreme hysteresis models "the migration would cost more
            # than the remaining work" — the policy records a hold and
            # never grows.
            "grow-at-convergence-tail": dict(
                plan=[FaultSpec("recover", 2)],
                hysteresis=1000,
                expected_regrids=0,
                expected_rank_delta=0,
            ),
        },
        recovery=lambda spec: Recovery(
            "autoscale",
            hysteresis=spec.get("hysteresis", 0),
            monitor=HealthMonitor(**spec.get("monitor", {})),
        ),
        report=_ROW_HEAD
        + ("values_equal", "values_close", "n_regrids", "expected_regrids")
        + ("rank_delta", "expected_rank_delta")
        + ("n_demotions", "n_grows", "n_holds")
        + ("grid_trail", "regrid_s", "health", "fault_events", "error"),
        totals=_REGRID_TOTALS + ("demotions", "grows", "holds"),
        max_retries=2,
    ),
    # Memory bit-flips landing in a rank's registered state arrays at
    # superstep boundaries.  All flips fire at superstep >= 2 with
    # checkpoints at every boundary, so a verified-good checkpoint
    # always exists to roll back to.  Ranks assume at least a 2x2 grid
    # (the ledger needs replicated windows on both axes — see
    # ``repro.faults.integrity``).
    "sdc": Campaign(
        scenarios={
            # One bit in rank 1's state, early in the run.
            "memflip-single": dict(
                plan=[FaultSpec("memflip", 2, rank=1, bit=137)]
            ),
            # A 3-bit burst late in the run (DRAM row disturbance).
            "memflip-burst": dict(
                plan=[FaultSpec("memflip", 3, rank=2, bit=4099, count=3)]
            ),
            # Two independent flips on different ranks at different
            # supersteps: two detect-restore-recompute round trips.
            "memflip-double": dict(
                plan=[
                    FaultSpec("memflip", 2, rank=1, bit=7),
                    FaultSpec("memflip", 3, rank=2, bit=513),
                ]
            ),
        },
        algos=("BFS", "CC", "PR", "SSSP"),
        # The repair budget bounds the rollback loop from inside the
        # ledger; the resume cap is a backstop.
        recovery=lambda spec: Recovery(
            max_recoveries=spec.get("repair_budget", 2) + 2
        ),
        recovered="repaired",
        failed="unrepaired",
        integrity=True,
        report=_ROW_HEAD
        + ("detected", "values_equal", "counters_equal", "clocks_equal")
        + ("repairs", "certify_s", "n_fault_events", "fault_events", "error"),
        totals=("undetected", "unrepaired", "repairs"),
    ),
}

#: Clock lanes compared for ``clocks_equal``; an integrity campaign
#: also compares the resilience lanes (a repair must leave no trace).
_CLOCK_LANES = ("clock", "compute", "comm")
_RESILIENCE_LANES = ("recovery", "regrid", "certify")

#: Campaign-level report counters.
_TOTALS: dict[str, Callable[[list[CaseResult]], int]] = {
    "unrecovered": lambda cs: sum(c.status == "unrecovered" for c in cs),
    "unrepaired": lambda cs: sum(c.status == "unrepaired" for c in cs),
    "diverged": lambda cs: sum(c.status == "diverged" for c in cs),
    "undetected": lambda cs: sum(not c.detected for c in cs),
    "regrids": lambda cs: sum(c.n_regrids for c in cs),
    "demotions": lambda cs: sum(c.n_demotions for c in cs),
    "grows": lambda cs: sum(c.n_grows for c in cs),
    "holds": lambda cs: sum(c.n_holds for c in cs),
    "repairs": lambda cs: sum(c.repairs for c in cs),
}


def run_case(
    kind: str,
    make_engine: Callable[[], Any],
    algo: str,
    scenario: str,
    checkpoint_interval: int = 1,
    max_retries: Optional[int] = None,
    **overrides,
) -> CaseResult:
    """Run one (scenario, algorithm) pair of campaign ``kind`` and
    grade the outcome.

    ``overrides`` replace entries of the scenario's spec; passing
    ``plan=`` (fault specs, or a :class:`FaultPlan`) runs a plan the
    scenario table does not name.
    """
    camp = CAMPAIGNS[kind]
    if algo not in camp.algos:
        raise ValueError(
            f"unknown algorithm {algo!r}; choose from {sorted(camp.algos)}"
        )
    if scenario not in camp.scenarios and "plan" not in overrides:
        raise ValueError(
            f"unknown {kind} scenario {scenario!r}; choose from "
            f"{sorted(camp.scenarios)}"
        )
    spec = {**camp.scenarios.get(scenario, {}), **overrides}
    run, certify = ALGOS[algo]

    def runner(engine, resume):
        result = run(engine, resume)
        if camp.integrity:
            certify(engine, result)
        return result

    def guarded_engine():
        engine = make_engine()
        if camp.integrity:
            # Verified and checkpointed at *every* boundary, whatever
            # the requested interval: a verified-good checkpoint must
            # exist to roll back to.
            engine.attach_integrity(
                IntegrityLedger(repair_budget=spec.get("repair_budget", 2))
            )
        if spec.get("checkpointed", True):
            engine.attach_checkpoints(
                CheckpointManager(
                    interval=1 if camp.integrity else checkpoint_interval
                )
            )
        return engine

    ref_engine = guarded_engine()
    ref = runner(ref_engine, False)

    engine = guarded_engine()
    engine.attach_faults(
        FaultPlan(list(spec["plan"])),
        max_retries=camp.max_retries if max_retries is None else max_retries,
    )
    recovery = camp.recovery(spec)
    start_ranks = engine.n_ranks
    case = CaseResult(
        kind=kind,
        scenario=scenario,
        algo=algo,
        status=camp.failed,
        expected_regrids=spec.get("expected_regrids"),
        expected_rank_delta=spec.get("expected_rank_delta"),
        policy=recovery.name,
    )
    try:
        result = drive_elastic(runner, engine, recovery)
    except (RankFailure, ElasticUnrecoverable, IntegrityFailure) as exc:
        # The first engine still sees every event: the injector and the
        # recorded-event list are shared across regrid generations.
        final, events = engine, engine.fault_events
        case.error = str(exc)
    else:
        final = result.extra["elastic"]["engine"]
        events = final.fault_events
        case.values_equal = bool(np.array_equal(ref.values, result.values))
        case.values_close = bool(
            np.allclose(ref.values, result.values, rtol=1e-9, atol=1e-12)
        )
        case.counters_equal = (
            ref_engine.counters.summary() == final.counters.summary()
        )
        lanes = _CLOCK_LANES + (_RESILIENCE_LANES if camp.integrity else ())
        case.clocks_equal = all(
            bool(
                np.array_equal(
                    getattr(ref_engine.clocks, lane), getattr(final.clocks, lane)
                )
            )
            for lane in lanes
        )
        moved = any(
            e["from_grid"] != e["to_grid"] for e in events if "to_grid" in e
        )
        if not (
            case.values_equal
            or (algo == "PR" and moved and case.values_close)
        ):
            case.status = "diverged"
        elif recovery.resumes or recovery.regrids:
            case.status = camp.recovered
        else:
            case.status = "completed"
        case.regrid_fraction = float(result.timings.regrid_fraction)
        case.rank_delta = final.n_ranks - start_ranks
    case.n_regrids = recovery.regrids
    case.grid_trail = [(engine.grid.R, engine.grid.C)] + [
        e["to_grid"] for e in recovery.events if "to_grid" in e
    ]
    decisions = Counter(e["kind"] for e in recovery.events)
    case.n_demotions = decisions["demote"]
    case.n_grows = decisions["grow"]
    case.n_holds = decisions["hold"]
    flips = {e["superstep"] for e in events if e["kind"] == "memflip"}
    caught = {e["superstep"] for e in events if e["kind"] == "integrity"}
    case.detected = bool(flips) and flips <= caught
    ledger = engine.integrity
    case.repairs = ledger.repairs if ledger is not None else 0
    case.health = recovery.monitor.report() if recovery.monitor else {}
    case.recovery_s = final.clocks.peak("recovery")
    case.regrid_s = final.clocks.peak("regrid")
    case.certify_s = final.clocks.peak("certify")
    case.fault_events = list(events)
    case.ok = (
        case.status in (camp.recovered, "completed")
        and case.expected_regrids in (None, case.n_regrids)
        and case.expected_rank_delta in (None, case.rank_delta)
        and (
            not camp.integrity
            or (case.detected and case.counters_equal and case.clocks_equal)
        )
    )
    return case


def run_campaign(
    kind: str,
    make_engine: Callable[[], Any],
    algos: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    checkpoint_interval: int = 1,
    max_retries: Optional[int] = None,
    make_weighted_engine: Optional[Callable[[], Any]] = None,
) -> dict:
    """Run campaign ``kind``'s scenario x algorithm grid; return the
    ``repro.faults.<kind>.v1`` report dict.

    ``report["failed"]`` counts cases that did not end healthy
    (unrecovered, unrepaired, diverged, undetected, or off the
    scenario's expected regrid count / rank delta) — the ``python -m
    repro faults`` CLI turns it into the process exit code.  Weighted
    algorithms (SSSP) use ``make_weighted_engine`` and are skipped —
    *loudly*, via the report's ``skipped`` list — when no weighted
    factory is given.
    """
    camp = CAMPAIGNS[kind]
    cases: list[CaseResult] = []
    skipped = []
    for scenario in camp.default_scenarios if scenarios is None else scenarios:
        for algo in camp.algos if algos is None else algos:
            factory = make_engine
            if algo in WEIGHTED_ALGOS:
                if make_weighted_engine is None:
                    skipped.append({"scenario": scenario, "algo": algo})
                    continue
                factory = make_weighted_engine
            cases.append(
                run_case(
                    kind,
                    factory,
                    algo,
                    scenario,
                    checkpoint_interval=checkpoint_interval,
                    max_retries=max_retries,
                )
            )
    report = {
        "schema": f"repro.faults.{kind}.v1",
        "cases": [c.as_dict() for c in cases],
    }
    if set(camp.algos) & set(WEIGHTED_ALGOS):
        report["skipped"] = skipped
    report["total"] = len(cases)
    report["failed"] = sum(1 for c in cases if not c.ok)
    for name in camp.totals:
        report[name] = _TOTALS[name](cases)
    return report
