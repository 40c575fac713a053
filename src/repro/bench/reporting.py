"""Result export: Markdown and CSV writers, and the measured
comm / compute split of a row.

The bench harness produces :class:`~repro.bench.harness.ExperimentRow`
records; this module renders them for humans (Markdown tables) and
for downstream tooling (CSV), and sums a row's exact per-iteration
trace so comm / compute splits come from measured counter deltas, not
time-share apportioning.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Sequence

from ..core.trace import IterationTrace
from .harness import ExperimentRow

__all__ = ["to_markdown", "to_csv", "comm_split"]

_COLUMNS = [
    ("dataset", lambda r: r.dataset),
    ("algo", lambda r: r.algorithm),
    ("ranks", lambda r: str(r.n_ranks)),
    ("grid", lambda r: r.grid),
    ("total_s", lambda r: f"{r.time_total:.6g}"),
    ("compute_s", lambda r: f"{r.time_compute:.6g}"),
    ("comm_s", lambda r: f"{r.time_comm:.6g}"),
    ("iterations", lambda r: str(r.iterations)),
    ("gteps", lambda r: f"{r.teps / 1e9:.4g}"),
]


def to_markdown(rows: Sequence[ExperimentRow], title: str = "") -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    header = "| " + " | ".join(name for name, _ in _COLUMNS) + " |"
    rule = "|" + "|".join("---" for _ in _COLUMNS) + "|"
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines += [header, rule]
    for r in rows:
        lines.append("| " + " | ".join(fn(r) for _, fn in _COLUMNS) + " |")
    return "\n".join(lines)


def to_csv(rows: Sequence[ExperimentRow]) -> str:
    """Render rows as CSV (header + one line per row)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([name for name, _ in _COLUMNS] + ["experiment"])
    for r in rows:
        writer.writerow([fn(r) for _, fn in _COLUMNS] + [r.experiment])
    return buf.getvalue()


def comm_split(row: ExperimentRow) -> dict[str, Any]:
    """Measured comm/comp decomposition of one row.

    Sums the row's exact per-iteration trace (attached by
    :func:`~repro.bench.harness.run_algorithm`); the time sums equal
    the row's clock totals and the traffic sums equal the run's
    ``CommCounters`` totals bit-for-bit.
    """
    trace: Sequence[IterationTrace] = row.extra.get("trace", ())
    if not trace:
        raise ValueError(
            f"row {row.dataset}/{row.algorithm} carries no trace; "
            "was it produced by run_algorithm?"
        )
    return {
        "compute_s": sum(t.compute_s for t in trace),
        "comm_s": sum(t.comm_s for t in trace),
        "bytes": sum(t.bytes for t in trace),
        "serial_messages": sum(t.serial_messages for t in trace),
        "transfers": sum(t.transfers for t in trace),
        "iterations": len(trace),
    }
