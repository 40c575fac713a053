"""Fault injection, guarded collectives, and checkpoint/recovery.

The robustness layer of the simulator (see ``docs/ROBUSTNESS.md``):

* :mod:`repro.faults.plan` — deterministic, hand-written fault plans
  (crash / transient / corruption / straggler specs) and the
  :class:`FaultEvent` records runs emit;
* :mod:`repro.faults.injector` — the plan-executing state machine,
  whose :meth:`FaultInjector.guard` is the engine communicator's guard
  (checksum detection, backoff retries, failure escalation), and the
  structured :class:`RankFailure` exception;
* :mod:`repro.faults.checkpoint` — in-memory superstep checkpoints
  that make crashed runs resumable bit-identically;
* :mod:`repro.faults.elastic` — :func:`drive_elastic`, the one
  recovery driver every resilient run goes through, and
  :class:`Recovery`, the one recovery object: its ``policy`` string
  resumes in place, shrinks onto the survivors, adopts a hot spare, or
  autoscales (demotes chronic stragglers and grows back onto arriving
  spares);
* :mod:`repro.faults.health` — the rank-health watchdog
  (:class:`HealthMonitor`) the autoscaler reads;
* :mod:`repro.faults.integrity` — silent-data-corruption defense:
  the replicated-window :class:`IntegrityLedger`, per-algorithm
  result certifiers, and checkpoint-rollback repair of detected
  corruption (``memflip`` faults);
* :mod:`repro.faults.scenarios` — the campaign table
  (:data:`CAMPAIGNS`) and the one case/campaign runner behind
  ``python -m repro faults`` (``--elastic``, ``--autoscale``,
  ``--sdc``).

The injector, ledger, checkpoint manager, health monitor and an
autoscaling :class:`Recovery` are
:class:`~repro.core.hooks.BoundaryHook` s: the engine fires them at
each superstep boundary in the declared phase order.
"""

from .checkpoint import Checkpoint, CheckpointManager
from .elastic import (
    ElasticUnrecoverable,
    Recovery,
    drive_elastic,
    migrate_checkpoint,
)
from .health import RANK_HEALTH, HealthMonitor
from .injector import FaultInjector, RankDemotion, RankFailure, SpareArrival
from .integrity import (
    CertificationReport,
    IntegrityFailure,
    IntegrityLedger,
    IntegrityViolation,
    apply_memflip,
    certify_bfs,
    certify_cc,
    certify_pagerank,
    certify_sssp,
)
from .plan import FAULT_KINDS, FaultEvent, FaultPlan, FaultSpec
from .scenarios import CAMPAIGNS, CaseResult, run_campaign, run_case

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "Recovery",
    "ElasticUnrecoverable",
    "drive_elastic",
    "migrate_checkpoint",
    "FaultInjector",
    "RankFailure",
    "RankDemotion",
    "SpareArrival",
    "RANK_HEALTH",
    "HealthMonitor",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "CAMPAIGNS",
    "CaseResult",
    "run_campaign",
    "run_case",
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
