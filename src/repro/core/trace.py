"""Structured execution traces: per-iteration comm/compute breakdowns.

The paper's Figs. 3 and 5 decompose run time into computation and
communication; finer analyses (which collective kind dominates, how
volume decays over the iteration tail) need per-iteration records.  A
:class:`TraceRecorder` wraps an engine run and reads the clock and
counter marks taken at every iteration boundary, yielding rows that
are *exact*: summing any counter column over the rows reproduces the
run's :class:`~repro.comm.counters.CommCounters` totals bit-for-bit.
Rows export to CSV (flat columns), JSON (full per-kind structure), or
JSONL (one object per iteration) for plotting or regression tracking.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any

from ..comm.clocks import PhaseTimes

__all__ = ["IterationTrace", "TraceRecorder", "TRACE_SCHEMA"]

#: Version tag stamped into JSON exports so downstream consumers can
#: detect schema changes.
TRACE_SCHEMA = "repro.trace.v1"


@dataclass(frozen=True)
class IterationTrace:
    """One BSP iteration's deltas — measured, not apportioned.

    ``bytes`` / ``serial_messages`` / ``transfers`` are the exact
    counter deltas between this iteration's boundary marks;
    ``by_kind`` breaks all four statistics down per collective kind
    and ``calls_by_kind`` is its calls-only view.  Every row owns its
    dicts (no sharing across rows).
    """

    iteration: int
    total_s: float
    compute_s: float
    comm_s: float
    bytes: int
    serial_messages: int
    transfers: int = 0
    #: Comm seconds hidden behind compute by split-phase collectives
    #: this iteration; 0.0 in blocking runs.  Contained in ``comm_s``
    #: but not in ``total_s`` (see docs/MODEL.md).
    overlap_s: float = 0.0
    calls_by_kind: dict[str, int] = field(default_factory=dict)
    by_kind: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Fault events observed during this iteration (plain dicts with
    #: kind / rank / superstep / collective / retries / recovery_s),
    #: empty in fault-free runs.  Beyond injector events this includes
    #: the robustness-layer kinds: ``health`` (watchdog transitions),
    #: ``demote`` / ``grow`` / ``hold`` (autoscaler decisions),
    #: ``regrid`` (elastic migrations), ``memflip`` (injected silent
    #: in-memory bit flips), and ``integrity`` (ledger/certifier
    #: detections of such corruption).  See ``repro.faults.elastic``,
    #: ``repro.faults.health``, and ``repro.faults.integrity``.
    faults: tuple = ()

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (the JSON row shape)."""
        return {
            "iteration": self.iteration,
            "total_s": self.total_s,
            "compute_s": self.compute_s,
            "comm_s": self.comm_s,
            "bytes": self.bytes,
            "serial_messages": self.serial_messages,
            "transfers": self.transfers,
            "overlap_s": self.overlap_s,
            "calls_by_kind": dict(self.calls_by_kind),
            "by_kind": {k: dict(v) for k, v in self.by_kind.items()},
            "faults": [dict(f) for f in self.faults],
        }


def _delta(now: dict, prev: dict) -> dict[str, dict[str, int]]:
    """Exact per-kind difference of two counter marks
    (``CommCounters.state_dict()`` copies), by kind name; kinds with no
    activity in between are dropped."""
    out = {}
    for kind, stats in sorted(now.items()):
        before = prev.get(kind, {})
        d = {key: v - before.get(key, 0) for key, v in stats.items()}
        if any(d.values()):
            out[kind] = d
    return out


def _row(index: int, dt: PhaseTimes, dc: dict, faults: tuple = ()) -> IterationTrace:
    return IterationTrace(
        iteration=index,
        total_s=dt.total,
        compute_s=dt.compute,
        comm_s=dt.comm,
        bytes=sum(s["bytes"] for s in dc.values()),
        serial_messages=sum(s["serial_messages"] for s in dc.values()),
        transfers=sum(s["transfers"] for s in dc.values()),
        overlap_s=dt.overlap,
        calls_by_kind={kind: s["calls"] for kind, s in dc.items()},
        by_kind=dc,
        faults=faults,
    )


class TraceRecorder:
    """Builds exact per-iteration rows from an engine's boundary marks.

    Usage::

        rec = TraceRecorder(engine)
        algorithms.connected_components(engine)
        rows = rec.collect()
        print(rec.to_csv(rows))

    Works with any algorithm that calls ``clocks.mark_iteration()``
    (all of them do): the engine attaches its ``CommCounters`` to its
    ``VirtualClocks``, so every mark copies the cumulative counter
    state alongside the clock state.  ``collect`` subtracts consecutive
    marks — integer arithmetic on measured values, so rows sum to
    the run totals by construction.  Work before the first mark (e.g.
    degree precomputation) lands in iteration 1; work after the last
    mark, if any, is emitted as one trailing row so nothing is lost.
    """

    def __init__(self, engine: Any):
        self.engine = engine

    def collect(self) -> list[IterationTrace]:
        """Build per-iteration rows from the completed run's marks."""
        clocks = self.engine.clocks
        marks = clocks.iteration_marks
        cmarks = clocks.counter_marks
        if marks and len(cmarks) != len(marks):
            raise ValueError(
                "clock marks lack counter snapshots: construct VirtualClocks "
                "with counters=... (Engine does this) before the run"
            )
        # Fault events (if the engine ran with an injector attached)
        # group by the superstep they fired in; events beyond the final
        # mark (e.g. a crash in a never-completed iteration) belong to
        # the tail row.
        by_step: dict[int, list[dict]] = {}
        for event in getattr(self.engine, "fault_events", []):
            # Robustness-layer events (health / demote / grow / hold)
            # always carry a superstep, but tolerate hand-built dicts
            # that omit it: attribute them to the pre-first-mark work
            # that lands in iteration 1.
            by_step.setdefault(event.get("superstep", 0), []).append(event)
        rows: list[IterationTrace] = []
        prev_t = PhaseTimes(0.0, 0.0, 0.0)
        prev_c: dict = {}
        for i, (m, c) in enumerate(zip(marks, cmarks)):
            rows.append(
                _row(i + 1, m - prev_t, _delta(c, prev_c),
                     faults=tuple(by_step.get(i + 1, ())))
            )
            prev_t, prev_c = m, c
        end_t = clocks.snapshot()
        end_c = (
            clocks.counters.state_dict()
            if clocks.counters is not None
            else prev_c
        )
        dt, dc = end_t - prev_t, _delta(end_c, prev_c)
        tail_faults = tuple(
            e for step, events in by_step.items()
            if step > len(marks) for e in events
        )
        if dc or dt.total > 0.0 or tail_faults:
            rows.append(_row(len(marks) + 1, dt, dc, faults=tail_faults))
        return rows

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    @staticmethod
    def to_csv(rows: list[IterationTrace]) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["iteration", "total_s", "compute_s", "comm_s", "overlap_s",
             "bytes", "serial_messages", "transfers", "calls", "faults"]
        )
        for r in rows:
            writer.writerow(
                [r.iteration, f"{r.total_s:.9f}", f"{r.compute_s:.9f}",
                 f"{r.comm_s:.9f}", f"{r.overlap_s:.9f}", r.bytes,
                 r.serial_messages, r.transfers,
                 sum(r.calls_by_kind.values()), len(r.faults)]
            )
        return buf.getvalue()

    @staticmethod
    def to_json(rows: list[IterationTrace], meta: dict[str, Any] | None = None) -> str:
        """Full structured export: schema tag, rows, and exact totals."""
        payload: dict[str, Any] = {"schema": TRACE_SCHEMA}
        if meta:
            payload["meta"] = dict(meta)
        payload["iterations"] = [r.as_dict() for r in rows]
        totals_by_kind: dict[str, dict[str, int]] = {}
        for r in rows:
            for kind, stats in r.by_kind.items():
                agg = totals_by_kind.setdefault(
                    kind,
                    {"calls": 0, "serial_messages": 0, "transfers": 0, "bytes": 0},
                )
                for key, v in stats.items():
                    agg[key] += v
        payload["totals"] = {
            "total_s": sum(r.total_s for r in rows),
            "compute_s": sum(r.compute_s for r in rows),
            "comm_s": sum(r.comm_s for r in rows),
            "overlap_s": sum(r.overlap_s for r in rows),
            "bytes": sum(r.bytes for r in rows),
            "serial_messages": sum(r.serial_messages for r in rows),
            "transfers": sum(r.transfers for r in rows),
            "by_kind": dict(sorted(totals_by_kind.items())),
        }
        return json.dumps(payload, indent=2, sort_keys=False)
